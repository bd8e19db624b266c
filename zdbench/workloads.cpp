#include "workloads.hpp"

#include <sys/resource.h>

#include <iostream>

#include "core/rng.hpp"
#include "experiment/census.hpp"
#include "experiment/runner.hpp"
#include "experiment/sweep_journal.hpp"
#include "experiment/torture.hpp"
#include "spans.hpp"

namespace zdbench {

namespace exp = zerodeg::experiment;

namespace {

constexpr std::uint64_t kGoldenSeed = 20100219;
constexpr std::size_t kCampaignCells = 1024;
constexpr std::size_t kCampaignWorkers = 3;
/// Runner constructions timed per census cell beyond the cell's own, so
/// setup_s is a median of many samples.
constexpr int kExtraSetupSamples = 2;

void expect(Outcome& out, bool ok, const std::string& what) {
    if (!ok) out.fail(what);
}

}  // namespace

ExperimentConfig season_config(WorkloadKind kind, std::uint64_t seed) {
    ExperimentConfig config;
    config.master_seed = seed;
    config.workload = kind;
    return config;
}

FaultCensus timed_season(const ExperimentConfig& config, double load_delay_us,
                         SeasonTiming& timing) {
    const Clock::time_point start = Clock::now();
    exp::ExperimentRunner runner(config);
    timing.setup_s = seconds_since(start);
    runner.run();
    FaultCensus census = exp::take_census(runner);
    busy_wait_us(load_delay_us * static_cast<double>(census.load_runs));
    timing.cell_s = seconds_since(start);
    return census;
}

std::string census_line(std::size_t index, const FaultCensus& census) {
    return exp::encode_cell_record(index, census);
}

void check_golden(WorkloadKind kind, Outcome& out) {
    const FaultCensus c = exp::run_season_census(season_config(kind, kGoldenSeed));
    const std::string tag = std::string("golden ") + exp::to_string(kind) + " season: ";
    if (kind == WorkloadKind::kArchive) {
        const std::size_t failed = c.tent_hosts_failed + c.basement_hosts_failed;
        const std::size_t hosts = c.tent_hosts + c.basement_hosts;
        expect(out, failed == 1 && hosts == 18,
               tag + "expected 1/18 hosts failed, got " + std::to_string(failed) + "/" +
                   std::to_string(hosts));
        expect(out, c.wrong_hashes == 13,
               tag + "expected 13 wrong hashes, got " + std::to_string(c.wrong_hashes));
    } else {
        expect(out, c.requests_completed == 787661,
               tag + "expected 787661 completed, got " + std::to_string(c.requests_completed));
        expect(out, c.deadline_misses == 18625,
               tag + "expected 18625 misses, got " + std::to_string(c.deadline_misses));
        expect(out, c.p99_sojourn_us == 888624838,
               tag + "expected p99 888.62 s, got " + std::to_string(c.p99_sojourn_us) + " us");
    }
    std::cout << "golden " << exp::to_string(kind) << " season digest "
              << hex64(zerodeg::core::fnv1a(census_line(0, c))) << " (seed " << kGoldenSeed
              << ")\n";
}

void check_cell(WorkloadKind kind, std::uint64_t seed, const FaultCensus& c, Outcome& out) {
    const std::string tag = "seed " + std::to_string(seed) + ": ";
    expect(out, c.tent_hosts + c.basement_hosts >= 18, tag + "fleet census lost hosts");
    expect(out, c.tent_hosts_failed <= c.tent_hosts && c.basement_hosts_failed <= c.basement_hosts,
           tag + "more failed hosts than hosts");
    expect(out, c.system_failures == c.transient_failures + c.permanent_failures,
           tag + "system failures do not add up");
    if (kind == WorkloadKind::kArchive) {
        expect(out, c.load_runs > 60000 && c.requests_completed == 0,
               tag + "archive season did not run the archive pipeline alone");
        expect(out, c.wrong_hashes == c.wrong_hashes_tent + c.wrong_hashes_basement,
               tag + "wrong hashes do not add up");
    } else {
        expect(out, c.load_runs == 0 && c.requests_completed > 500000,
               tag + "traffic season did not serve traffic alone");
        expect(out, c.deadline_misses >= c.requests_dropped, tag + "drops not charged as misses");
    }
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Outcome run_census_workload(const RunOptions& opts, WorkloadKind kind) {
    Outcome out;
    check_golden(kind, out);  // also warms caches and lazy set-up

    std::vector<double> setup_s;
    std::vector<double> cell_s;
    std::string lines;  // every cell's census line, for the digest
    const std::uint64_t base = base_seed(opts.seed);
    const Clock::time_point start = Clock::now();
    double sampling_s = 0.0;  // extra set-up samples, kept out of the wall
    std::size_t cells = 0;
    while (cells == 0 || seconds_since(start) - sampling_s < opts.seconds) {
        // One closed-batch slot: the next cell starts when this one returns.
        exp::CensusPlan plan;
        plan.base_seed = base + cells;
        plan.seeds = 1;
        plan.make_config = [kind](std::size_t, std::uint64_t seed) {
            return season_config(kind, seed);
        };
        const Clock::time_point sampling = Clock::now();
        for (int i = 0; i < kExtraSetupSamples; ++i) {
            const Clock::time_point built = Clock::now();
            const exp::ExperimentRunner runner(season_config(kind, plan.base_seed));
            setup_s.push_back(seconds_since(built));
        }
        sampling_s += seconds_since(sampling);

        SeasonTiming timing;
        plan.run_cell = [&](const ExperimentConfig& config) {
            return timed_season(config, opts.load_delay_us, timing);
        };
        ++out.attempted;
        try {
            const exp::CensusResult result = exp::run_census(plan, 1);
            check_cell(kind, plan.base_seed, result.censuses.at(0), out);
            lines += census_line(cells, result.censuses[0]) + '\n';
            setup_s.push_back(timing.setup_s);
            cell_s.push_back(timing.cell_s);
        } catch (const std::exception& e) {
            ++out.failed;
            out.fail("seed " + std::to_string(plan.base_seed) + ": " + e.what());
        }
        ++cells;
    }
    const double wall = seconds_since(start) - sampling_s;

    std::cout << exp::to_string(kind) << " census digest " << hex64(zerodeg::core::fnv1a(lines))
              << " over " << cells
              << " cells (seeds " << base << ".." << base + cells - 1 << ")\n"
              << "cell_s_p50 over " << cell_s.size() << " cells (min " << quantile(cell_s, 0.0)
              << ", max " << quantile(cell_s, 1.0) << "), setup_s over " << setup_s.size()
              << " constructions\n";
    out.add("cells_per_s", static_cast<double>(cells - out.failed) / wall, "1/s");
    out.add("cell_s_p50", median(cell_s), "s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("cells_ok_frac",
            static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
            "frac");
    return out;
}

Campaign make_campaign(const RunOptions& opts) {
    Campaign c;
    c.plan.base_seed = base_seed(opts.seed);
    c.plan.seeds = kCampaignCells;
    c.plan.run_cell = exp::synthetic_census;
    c.scratch = opts.out_dir / "campaign";
    const exp::CensusResult reference = exp::run_census(c.plan, 1);
    for (std::size_t i = 0; i < reference.censuses.size(); ++i) {
        c.reference.push_back(census_line(i, reference.censuses[i]));
    }
    return c;
}

CampaignRun run_campaign_once(const Campaign& campaign, SpanRecorder* spans, std::int32_t parent,
                              Outcome& out) {
    const std::filesystem::path& scratch = campaign.scratch;
    MemFs disk;
    TimingFs fs(disk, exp::merged_journal_path(scratch), spans, parent);
    exp::CensusPlan plan = campaign.plan;
    if (spans) {
        const std::uint64_t base = plan.base_seed;
        plan.run_cell = [spans, parent, base](const ExperimentConfig& config) {
            ScopedSpan span(spans, "campaign.run_cell", parent,
                            static_cast<std::int64_t>(config.master_seed - base));
            return exp::synthetic_census(config);
        };
    }
    exp::DistributedOptions dopts;
    dopts.workers = kCampaignWorkers;
    dopts.resume = false;
    dopts.fs = &fs;

    CampaignRun run;
    ++out.attempted;
    const Clock::time_point start = Clock::now();
    try {
        run.outcome = exp::run_distributed(plan, scratch, dopts);
    } catch (const std::exception& e) {
        ++out.failed;
        out.fail(std::string("campaign: ") + e.what());
        return run;
    }
    run.wall_s = seconds_since(start);
    if (const auto first = fs.first_merged_record()) {
        run.setup_s = Clock::seconds_between(start, *first);
    }
    run.io = fs.stats();
    if (spans) run.merged_journal = disk.read_file(exp::merged_journal_path(scratch));

    const exp::CoordinatorReport& report = run.outcome.coordinator;
    const std::vector<FaultCensus>& got = run.outcome.result.censuses;
    bool same = report.completed && got.size() == campaign.reference.size();
    for (std::size_t i = 0; same && i < got.size(); ++i) {
        same = census_line(i, got[i]) == campaign.reference[i];
    }
    if (!same || report.quarantined != 0 || run.setup_s <= 0.0) {
        ++out.failed;
        out.fail("campaign: merged census differs from run_census (completed=" +
                 std::to_string(report.completed) +
                 ", quarantined=" + std::to_string(report.quarantined) + ")");
    }
    return run;
}

Outcome run_campaign_workload(const RunOptions& opts) {
    Outcome out;
    const Campaign campaign = make_campaign(opts);
    std::string lines;
    for (const std::string& line : campaign.reference) lines += line + '\n';

    std::vector<double> setup_s;
    std::vector<double> cell_s;
    std::size_t cells = 0;
    const Clock::time_point start = Clock::now();
    while (setup_s.empty() || seconds_since(start) < opts.seconds) {
        const std::uint64_t failed_before = out.failed;
        const CampaignRun run = run_campaign_once(campaign, nullptr, -1, out);
        if (out.failed != failed_before) break;
        cells += campaign.reference.size();
        setup_s.push_back(run.setup_s);
        cell_s.push_back(run.wall_s / static_cast<double>(campaign.reference.size()));
    }
    const double wall = seconds_since(start);

    std::cout << "campaign census digest " << hex64(zerodeg::core::fnv1a(lines)) << " over "
              << campaign.reference.size() << " cells (seeds " << campaign.plan.base_seed << ".."
              << campaign.plan.base_seed + campaign.reference.size() - 1 << ")\n"
              << "campaigns run: " << setup_s.size() << ", wall s:";
    for (const double s : cell_s) std::cout << ' ' << s * static_cast<double>(kCampaignCells);
    std::cout << "\n";
    out.add("cells_per_s", static_cast<double>(cells) / wall, "1/s");
    out.add("cell_s_p50", median(cell_s), "s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("cells_ok_frac",
            static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
            "frac");
    return out;
}

}  // namespace zdbench
