// Golden-number regression suite: the paper's reproduced claims, pinned at
// the default seeds, so future refactors can't silently drift the
// reproduction.  Each test names the claim as the paper states it.  Bands
// are deliberately loose where the claim is statistical (the simulation
// regenerates the *regime*) and exact where the run is deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "energy/pue.hpp"
#include "experiment/census.hpp"
#include "experiment/parallel_census.hpp"
#include "experiment/prototype.hpp"
#include "experiment/runner.hpp"
#include "faults/memory_faults.hpp"
#include "workload/archive.hpp"
#include "workload/corpus.hpp"
#include "workload/load_job.hpp"
#include "workload/md5.hpp"
#include "workload/slo.hpp"

namespace zerodeg {
namespace {

// --- Section 5: "a rather efficient 1.74" --------------------------------

TEST(GoldenClaims, PueOfTheNewClusterIs174) {
    const energy::PueBreakdown p = energy::helsinki_cluster_pue();
    EXPECT_NEAR(p.it_load.kilowatts(), 75.0, 1e-9);
    EXPECT_NEAR(p.cooling.kilowatts(), 6.9 + 44.7 + 3.8, 1e-9);
    EXPECT_NEAR(p.pue, 1.74, 0.005);
    // "unfortunately, such is not the case": the legacy-CRAC correction only
    // makes it worse.
    EXPECT_GT(energy::helsinki_cluster_pue_with_legacy_cracs().pue, p.pue);
}

// --- Section 3.1: the prototype weekend ----------------------------------

TEST(GoldenClaims, PrototypeWeekendReproducesThePaperRegime) {
    const experiment::PrototypeResult r = experiment::run_prototype();
    // Paper: minimum -10.2 degC, mean -9.2 degC, CPU as cold as -4 degC,
    // and the machine survived with clean S.M.A.R.T. data.  At the default
    // seed this reproduction lands on -12.4 / -9.2 / -4.8 (the minimum runs
    // colder because the synthetic weekend keeps a realistic diurnal spread;
    // see "Known deviations" in EXPERIMENTS.md).
    EXPECT_TRUE(r.survived);
    EXPECT_TRUE(r.smart_ok);
    EXPECT_NEAR(r.outside_mean.value(), -9.2, 0.5);   // the paper's mean, matched
    EXPECT_NEAR(r.outside_min.value(), -12.4, 1.0);   // pinned reproduction value
    EXPECT_NEAR(r.cpu_min_reported.value(), -4.8, 2.0);
    EXPECT_LT(r.cpu_min_reported.value(), 0.0);       // "as low as -4 degC": sub-zero CPU
}

// --- Section 4 / 4.2: the fault census at the default seed ---------------

/// One full default season (the paper's Feb 19 - Mar 27 window, seed
/// 20100219), shared by the census golden tests below.  ~1.5 s once.
const experiment::FaultCensus& default_season_census() {
    static const experiment::FaultCensus census =
        experiment::run_season_census(experiment::ExperimentConfig{});
    return census;
}

TEST(GoldenClaims, HostFailureRateIsThePapers56Percent) {
    const experiment::FaultCensus& c = default_season_census();
    // Paper: one of eighteen installed hosts failed -- 5.6%, vs Intel's
    // 4.46% comparator -- and the failure was in the tent group.
    EXPECT_EQ(c.tent_hosts, 9u);
    EXPECT_EQ(c.basement_hosts, 9u);
    EXPECT_EQ(c.tent_hosts_failed, 1u);
    EXPECT_EQ(c.basement_hosts_failed, 0u);
    EXPECT_NEAR(c.fleet_failure_rate(), 1.0 / 18.0, 1e-12);
    // Same band as Intel's economizer PoC, the paper's headline comparison.
    EXPECT_LT(c.fleet_failure_rate(), 2.0 * experiment::FaultCensus::kIntelFailureRate);
}

TEST(GoldenClaims, DefaultSeasonCensusGoldenNumbers) {
    const experiment::FaultCensus& c = default_season_census();
    // Exact pins at the default seed: any behavioural drift in weather,
    // thermals, hazards, scheduling or RNG stream derivation moves at least
    // one of these.  Update them ONLY for an intentional model change, and
    // say so in EXPERIMENTS.md.
    EXPECT_EQ(c.system_failures, 1u);
    EXPECT_EQ(c.load_runs, 70183u);
    EXPECT_EQ(c.wrong_hashes, 13u);
    EXPECT_EQ(c.sensor_incidents, 0u);
    EXPECT_EQ(c.switch_failures, 3u);
}

TEST(GoldenClaims, WrongHashRatioOfTheSeasonNear570Million) {
    const experiment::FaultCensus& c = default_season_census();
    // Paper: "around one in 570 million" page operations.  The default
    // season realizes one in ~657 million -- same order, well inside the
    // Poisson spread of 13 events.
    ASSERT_GT(c.wrong_hashes, 0u);
    const double ops_per_corruption = 1.0 / c.page_fault_ratio();
    EXPECT_GT(ops_per_corruption, 570e6 / 2.0);
    EXPECT_LT(ops_per_corruption, 570e6 * 2.0);
}

// --- Traffic workload: the default request-serving season -----------------

TEST(GoldenClaims, DefaultTrafficSeasonGoldenNumbers) {
    experiment::ExperimentConfig cfg;
    cfg.workload = experiment::WorkloadKind::kTraffic;
    const experiment::FaultCensus c = experiment::run_season_census(cfg);
    // Exact pins at the default seed: the whole coupling chain is upstream
    // of these numbers — arrival thinning, PS service, JSQ dispatch, host
    // install/crash schedule, utilization -> heat -> hazard.  Any drift in
    // any layer moves at least one.  Update ONLY for an intentional model
    // change, and say so in EXPERIMENTS.md.
    EXPECT_EQ(c.requests_completed, 787661u);
    EXPECT_EQ(c.requests_dropped, 0u);
    EXPECT_EQ(c.deadline_misses, 18625u);
    EXPECT_EQ(c.p99_sojourn_us, 888624838u);
    // The two default flash crowds transiently saturate the fleet; misses
    // stay a small minority of the season's traffic.
    EXPECT_NEAR(c.deadline_miss_fraction(), 0.024, 0.002);
    // Faults under the traffic workload at the default seed: same fleet
    // failure story as the archive season (one tent host).
    EXPECT_EQ(c.system_failures, 1u);
    EXPECT_EQ(c.switch_failures, 3u);
    // The archive pipeline really was off: no batch runs, no hash checks.
    EXPECT_EQ(c.load_runs, 0u);
    EXPECT_EQ(c.wrong_hashes, 0u);
}

// The exported `traffic_slo.csv` of the default traffic season, single and
// cloned dispatch, pinned byte for byte: every tick's p50/p95/p99 and busy
// fraction is downstream of the PS event order, so a faster queue or
// percentile that rounds one value differently moves these hashes.
std::string default_traffic_slo_csv(bool clone) {
    experiment::ExperimentConfig cfg;
    cfg.workload = experiment::WorkloadKind::kTraffic;
    cfg.traffic.clone_across_split = clone;
    experiment::ExperimentRunner runner(cfg);
    runner.run();
    return workload::render_slo_csv(runner.traffic().slo());
}

TEST(GoldenClaims, DefaultTrafficSeasonSloCsvBytes) {
    const std::string csv = default_traffic_slo_csv(false);
    EXPECT_EQ(csv.size(), 342108u);
    EXPECT_EQ(core::fnv1a(csv), 0x462a4f0f62fcdecfULL);
}

TEST(GoldenClaims, ClonedTrafficSeasonSloCsvBytes) {
    const std::string csv = default_traffic_slo_csv(true);
    EXPECT_EQ(csv.size(), 341560u);
    EXPECT_EQ(core::fnv1a(csv), 0x66131ffacfdcd933ULL);
}

// --- Section 3.5: the load cycle's reference bytes ------------------------

// The default season's LoadJob reference — the tarball and its frost
// container — pinned byte for byte at the default seed.  Every archive
// census runs its hash checks and recovery forensics against this
// container, so a faster corpus generator, tar writer, frost encoder or MD5
// that changes one byte moves these values.
TEST(GoldenClaims, LoadJobReferenceBytes) {
    constexpr std::uint64_t kSeed = 20100219;
    const workload::LoadJobConfig cfg;
    const workload::SyntheticCorpus corpus(cfg.corpus, kSeed);
    const std::vector<std::uint8_t> archive = workload::write_archive(corpus.files());
    EXPECT_EQ(archive.size(), 2212352u);
    EXPECT_EQ(workload::to_hex(workload::md5(archive)), "e4c262d8e9bfcafd227af6cada14803d");

    const workload::LoadJob job(cfg, kSeed);
    EXPECT_EQ(job.archive_bytes(), archive.size());
    EXPECT_EQ(job.container_bytes(), 1445826u);
    EXPECT_EQ(job.block_count(), 397u);
    EXPECT_EQ(workload::to_hex(job.reference_digest()), "6fc4458a5f38fc88b4726b5f6130fc59");
    EXPECT_EQ(workload::md5(job.reference_container()), job.reference_digest());
}

// --- Section 4.2.2: "around one in 570 million" --------------------------

TEST(GoldenClaims, WrongHashRatioNearOneIn570Million) {
    const faults::MemoryFaultParams params;  // defaults ARE the paper's rate
    EXPECT_DOUBLE_EQ(params.flip_probability_per_page_op, 1.0 / 570e6);

    faults::MemoryFaultModel model(params, core::RngStream(20100219, "golden-hashes"));
    // Simulate ~20x the paper's denominator and require the realized ratio
    // inside a 4-sigma Poisson band around 1/570M.
    constexpr std::uint64_t kPageOpsPerSlice = 570'000'000;
    constexpr int kSlices = 20;
    std::uint64_t corrupting = 0;
    for (int i = 0; i < kSlices; ++i) {
        corrupting += model.run(kPageOpsPerSlice, /*ecc=*/false).corrupting_flips;
    }
    EXPECT_GT(corrupting, 0u);
    EXPECT_NEAR(static_cast<double>(corrupting), kSlices, 4.0 * std::sqrt(kSlices));
}

}  // namespace
}  // namespace zerodeg
