#include "experiment/parallel_census.hpp"

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "core/watchdog.hpp"
#include "experiment/runner.hpp"
#include "experiment/sweep_journal.hpp"

namespace zerodeg::experiment {

FaultCensus run_season_census(const ExperimentConfig& config) {
    ExperimentRunner run(config);
    run.run();
    return take_census(run);
}

ExperimentConfig cell_config(const CensusPlan& plan, std::size_t index) {
    const std::uint64_t seed = plan.base_seed + index;
    ExperimentConfig cfg;
    if (plan.make_config) {
        cfg = plan.make_config(index, seed);
    } else {
        cfg.master_seed = seed;
    }
    core::with_context("census cell " + std::to_string(index), [&] { validate(cfg); });
    return cfg;
}

FaultCensus run_cell(const CensusPlan& plan, const ExperimentConfig& config) {
    return plan.run_cell ? plan.run_cell(config) : run_season_census(config);
}

ParallelCensus::ParallelCensus(CensusPlan plan, std::size_t jobs)
    : plan_(std::move(plan)), runner_(jobs) {}

std::vector<ExperimentConfig> ParallelCensus::build_configs() const {
    // Configs are built serially up front so make_config need not be
    // thread-safe; only the seasons themselves fan out.  Validation happens
    // here too: a bad campaign dies with a per-cell diagnostic before any
    // worker starts.
    std::vector<ExperimentConfig> configs;
    configs.reserve(plan_.seeds);
    for (std::size_t i = 0; i < plan_.seeds; ++i) configs.push_back(cell_config(plan_, i));
    return configs;
}

SweepJournalKey ParallelCensus::journal_key() const {
    SweepJournalKey key;
    key.base_seed = plan_.base_seed;
    key.cells = plan_.seeds;
    // Combined fingerprint over every cell, order-sensitive, so a changed
    // sweep axis (not just a changed default) invalidates old journals.
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const ExperimentConfig& cfg : build_configs()) {
        const std::uint64_t fp = fingerprint(cfg);
        h ^= fp + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    key.config_hash = h;
    return key;
}

CensusResult ParallelCensus::run_impl(SweepJournal* journal) const {
    const std::vector<ExperimentConfig> configs = build_configs();

    // Split cells into journal hits (reused verbatim) and cells still to
    // simulate.  find() runs before the fan-out; record() during it.
    std::vector<FaultCensus> censuses(configs.size());
    std::vector<std::size_t> missing;
    missing.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const FaultCensus* hit = journal ? journal->find(i) : nullptr;
        if (hit) {
            censuses[i] = *hit;
        } else {
            missing.push_back(i);
        }
    }

    // Optional deadline supervision: each cell attempt runs under a watched
    // scope whose cancel token is installed thread-locally, so leaf code
    // (fault-injected stalls, long loops) can honour a cancellation without
    // plumbing.  A cancelled attempt throws TransientError, which CellRetry
    // absorbs up to the cell's attempt budget — a hung node is detected,
    // cancelled, retried and reported, exactly like the paper's reboots.
    std::unique_ptr<core::Watchdog> watchdog;
    if (plan_.cell_deadline_ms > 0) {
        watchdog = std::make_unique<core::Watchdog>(plan_.cell_deadline_ms);
    }

    if (!missing.empty()) {
        const std::vector<FaultCensus> fresh = runner_.map(
            missing.size(),
            [this, &configs, &missing, journal, &watchdog](std::size_t k) {
                const std::size_t i = missing[k];
                std::optional<core::Watchdog::Scope> scope;
                std::optional<core::ScopedCellToken> cell_token;
                if (watchdog) {
                    scope.emplace(watchdog->watch("cell " + std::to_string(i)));
                    cell_token.emplace(scope->token());
                }
                const FaultCensus census = run_cell(plan_, configs[i]);
                // Checkpoint each cell the moment it finishes: if a later
                // cell crashes the whole process, this one is already safe.
                if (journal) journal->record(i, census);
                return census;
            },
            core::CellRetry{plan_.cell_attempts});
        for (std::size_t k = 0; k < missing.size(); ++k) censuses[missing[k]] = fresh[k];
    }

    CensusResult result;
    result.censuses = std::move(censuses);
    result.summary = summarize(result.censuses);
    if (watchdog) {
        result.harness.hung_cells = watchdog->hung_count();
        result.harness.hung_cell_labels = watchdog->hung_labels();
    }
    return result;
}

CensusResult ParallelCensus::run() const { return run_impl(nullptr); }

CensusResult ParallelCensus::run(SweepJournal& journal) const {
    // Belt and braces: the journal already validated its header against the
    // key it was opened with, but nothing stops a caller opening it with the
    // wrong key.  Recompute the campaign identity and refuse a mismatch.
    const SweepJournalKey want = journal_key();
    const SweepJournalKey& got = journal.key();
    if (got.base_seed != want.base_seed || got.config_hash != want.config_hash ||
        got.cells != want.cells) {
        throw core::StaleJournal("journal '" + journal.path().string() +
                                 "' was opened for a different campaign than this plan");
    }
    return run_impl(&journal);
}

CensusResult run_census(const CensusPlan& plan, std::size_t jobs) {
    return ParallelCensus(plan, jobs).run();
}

}  // namespace zerodeg::experiment
