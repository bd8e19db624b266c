// The three workloads, untraced, plus the pieces the traced run shares:
// one timed season, one campaign, and the output checks.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "experiment/config.hpp"
#include "experiment/distributed.hpp"
#include "experiment/parallel_census.hpp"
#include "timing_fs.hpp"

namespace zdbench {

class SpanRecorder;

using zerodeg::experiment::ExperimentConfig;
using zerodeg::experiment::FaultCensus;
using zerodeg::experiment::WorkloadKind;

/// The paper-default season of `kind` at master seed `seed`.
[[nodiscard]] ExperimentConfig season_config(WorkloadKind kind, std::uint64_t seed);

struct SeasonTiming {
    double setup_s = 0.0;  ///< ExperimentRunner construction
    double cell_s = 0.0;   ///< construction + season + census
};

/// One untraced season, the unit of work a census cell runs.  A nonzero
/// `load_delay_us` (the attribution self-test) adds that busy delay once per
/// LoadJob::run the season made.
[[nodiscard]] FaultCensus timed_season(const ExperimentConfig& config, double load_delay_us,
                                       SeasonTiming& timing);

/// The census line a journal or CELL frame carries for this cell.
[[nodiscard]] std::string census_line(std::size_t index, const FaultCensus& census);

/// The golden numbers at the paper's seed 20100219 (test_golden_claims).
void check_golden(WorkloadKind kind, Outcome& out);
/// What every season of `kind` must show, whatever its seed.
void check_cell(WorkloadKind kind, std::uint64_t seed, const FaultCensus& census, Outcome& out);

/// The campaign: 1024 synthetic cells over three lease workers, and the
/// run_census reference its merged result must equal.
struct Campaign {
    zerodeg::experiment::CensusPlan plan;
    std::vector<std::string> reference;  ///< census_line per cell
    /// Journal directory.  run_distributed creates it on disk; the journals
    /// themselves live in a MemFs.
    std::filesystem::path scratch;
};
[[nodiscard]] Campaign make_campaign(const RunOptions& opts);

struct CampaignRun {
    double wall_s = 0.0;
    double setup_s = 0.0;  ///< call to the first merged-journal record
    zerodeg::experiment::DistributedOutcome outcome;
    TimingFs::Stats io;    ///< journal I/O, filled when `spans` is set
    std::string merged_journal;  ///< final merged journal bytes, when `spans` is set
};
/// One campaign, its journals on a fresh MemFs under TimingFs; checks the
/// merged result against the reference.  With `spans` set (the traced run)
/// it records one span per run_cell and journal write/rename under `parent`.
[[nodiscard]] CampaignRun run_campaign_once(const Campaign& campaign, SpanRecorder* spans,
                                            std::int32_t parent, Outcome& out);

[[nodiscard]] Outcome run_census_workload(const RunOptions& opts, WorkloadKind kind);
[[nodiscard]] Outcome run_campaign_workload(const RunOptions& opts);

/// Peak resident memory of this process, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace zdbench
