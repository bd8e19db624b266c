// Parallel Monte-Carlo execution over independent experiment seasons.
//
// Each seed's season is already a closed world — every stochastic process
// derives its named RNG streams from that season's master seed alone (see
// core/rng.hpp) — so seasons shard across worker threads with no shared
// mutable state at all.  Determinism then only requires that the *reduce*
// side be ordered: results land in a slot indexed by seed, and summaries are
// folded in seed order.  `ParallelCensus` with any `jobs` value is therefore
// bit-identical to the serial loop it replaces, a property pinned by
// tests/test_parallel_determinism.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/parallel.hpp"
#include "core/task_pool.hpp"
#include "experiment/census.hpp"
#include "experiment/config.hpp"

namespace zerodeg::experiment {

class SweepJournal;
struct SweepJournalKey;

/// Shards an ordered set of independent simulation cells across a worker
/// pool and returns results in cell order.  `jobs <= 1` runs inline on the
/// calling thread (no threads are created), which is both the serial
/// reference for parity tests and the sensible default on small sweeps.
class SweepRunner {
public:
    /// `jobs` == 0 means one worker per hardware thread.
    explicit SweepRunner(std::size_t jobs = 1)
        : jobs_(jobs == 0 ? core::TaskPool::hardware_workers() : jobs) {}

    [[nodiscard]] std::size_t jobs() const { return jobs_; }

    /// map(count, fn) -> {fn(0), fn(1), ..., fn(count-1)}, in index order
    /// regardless of scheduling.  `fn` must be safe to call concurrently
    /// from `jobs` threads (independent cells; no shared mutable state).
    /// `retry` gives every cell a bounded attempt budget for TransientError
    /// failures (see core/parallel.hpp); the default retains fail-fast.
    template <typename Fn>
    [[nodiscard]] auto map(std::size_t count, Fn&& fn, core::CellRetry retry = {}) const {
        if (jobs_ <= 1 || count <= 1) return core::serial_map(count, fn, retry);
        core::TaskPool pool(std::min(jobs_, count));
        return core::parallel_map(pool, count, fn, retry);
    }

private:
    std::size_t jobs_;
};

/// The seed plan of a census: which seasons to simulate.
struct CensusPlan {
    std::uint64_t base_seed = 20100219;
    std::size_t seeds = 10;
    /// Builds the config for cell `index` (master seed `base_seed + index`).
    /// Called serially on the calling thread before the fan-out, so it need
    /// not be thread-safe.  Leave empty for the paper-default season with
    /// only the master seed varied.
    std::function<ExperimentConfig(std::size_t index, std::uint64_t seed)> make_config;
    /// The unit of work of one cell; leave empty for run_season_census.
    /// This is the seam crash/fault-injection tests use — note the journal's
    /// config hash cannot see a code-level override, so don't mix journals
    /// across different run_cell implementations.
    std::function<FaultCensus(const ExperimentConfig&)> run_cell;
    /// Total attempts a cell throwing core::TransientError gets before the
    /// failure is treated as permanent (1 = fail on the first throw).
    int cell_attempts = 1;
    /// Wall-clock budget per cell attempt; a cell still running past it is
    /// cancelled by a core::Watchdog (cooperatively, at its next
    /// cancellation point — e.g. a FaultyFs stall fault polling the cell
    /// token) and the cancellation is charged against `cell_attempts` like
    /// any transient failure.  0 disables supervision (the default: real
    /// seasons have no cancellation points, only harness-injected hangs do).
    std::int64_t cell_deadline_ms = 0;
};

/// The config of cell `index`: plan.make_config if set, else the
/// paper-default season with master seed `base_seed + index`; validated
/// with the cell named in the diagnostic.  Every runner of a plan (local
/// sweep, lease worker) derives cells through this one function, which is
/// what lets a worker's journal carry the full-campaign key.
[[nodiscard]] ExperimentConfig cell_config(const CensusPlan& plan, std::size_t index);

/// One cell's unit of work: plan.run_cell if set, else run_season_census.
[[nodiscard]] FaultCensus run_cell(const CensusPlan& plan, const ExperimentConfig& config);

/// Harness-level incidents of a campaign — the operator's-eye view the
/// paper reports as reboot walks to the tent.  Not part of FaultCensus (the
/// journal's 21-integer record format is unchanged): a hung *harness* node
/// is a property of one run's scheduling, not of the simulated season.
struct CensusHarnessStats {
    std::size_t hung_cells = 0;  ///< watchdog cancellations (retries count again)
    std::vector<std::string> hung_cell_labels;  ///< sorted, e.g. "cell 4"
};

struct CensusResult {
    std::vector<FaultCensus> censuses;  ///< [i] is the season of base_seed + i
    CensusSummary summary;              ///< ordered reduce over `censuses`
    CensusHarnessStats harness;         ///< hung-node incidents, empty without a watchdog
};

/// Run `plan.seeds` full seasons across `jobs` workers and take the census
/// of each.  Results are ordered by seed, and the summary is folded in seed
/// order, so the output is byte-identical for every `jobs` value.
class ParallelCensus {
public:
    explicit ParallelCensus(CensusPlan plan, std::size_t jobs = 1);

    [[nodiscard]] CensusResult run() const;

    /// Checkpointing run: cells already recorded in `journal` are reused
    /// verbatim (their seasons are not re-simulated) and every freshly
    /// finished cell is recorded — atomically, before the sweep moves on —
    /// so a killed campaign resumes where it died.  The journal must have
    /// been opened with this campaign's journal_key().
    [[nodiscard]] CensusResult run(SweepJournal& journal) const;

    /// The identity a checkpoint journal must match to be resumed against
    /// this plan: base seed, combined config fingerprint, cell count.
    [[nodiscard]] SweepJournalKey journal_key() const;

    [[nodiscard]] const CensusPlan& plan() const { return plan_; }
    [[nodiscard]] std::size_t jobs() const { return runner_.jobs(); }

private:
    [[nodiscard]] std::vector<ExperimentConfig> build_configs() const;
    [[nodiscard]] CensusResult run_impl(SweepJournal* journal) const;

    CensusPlan plan_;
    SweepRunner runner_;
};

/// One-shot convenience over ParallelCensus.
[[nodiscard]] CensusResult run_census(const CensusPlan& plan, std::size_t jobs = 1);

/// Simulate one full season for `config` and take its census (the unit of
/// work every sweep cell runs).
[[nodiscard]] FaultCensus run_season_census(const ExperimentConfig& config);

}  // namespace zerodeg::experiment
