// zerodeg_torture — crash-consistency and hung-node torture for sweeps.
//
//   zerodeg_torture [--seeds N] [--jobs N] [--cells trivial|season]
//                   [--scratch DIR] [--skip-export] [--skip-watchdog]
//                   [--verbose]
//
// Three scenarios, all deterministic:
//
//   1. Census torture: replay a checkpointed census campaign, crashing the
//      "process" at every journal write point times every crash phase
//      (before / torn write / after / torn tail), resume each time, and
//      require output byte-identical to an uninterrupted run.  Runs for
//      --jobs 1 and --jobs 8 unless --jobs pins one value.
//   2. Export torture: crash a season's figure export at a seed-chosen
//      subset of its write operations, re-export, and require every file
//      byte-identical to an undisturbed export.
//   3. Watchdog scenario: hang each cell's first attempt on a FaultyFs
//      stall fault; the core::Watchdog must cancel it, the CellRetry budget
//      must absorb the retry, and the campaign must still produce the
//      reference output while reporting the hung nodes.
//   4. Distributed torture: --workers lease-pulling workers stream cells
//      to a coordinator over faulty transports;
//      kill each worker at every send point and the coordinator at every
//      frame (every crash phase), resume, and require the merged journal
//      and rendered census byte-identical to an uninterrupted local run.
//
// --cells trivial (default) drives the journal machinery with synthetic
// deterministic cells (milliseconds per campaign); --cells season runs
// short real seasons instead, exercising the full simulation stack.
//
// Exit codes: 0 all scenarios passed, 1 torture failure, 2 usage error.
#include <atomic>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/io.hpp"
#include "core/rng.hpp"
#include "core/sim_time.hpp"
#include "experiment/config.hpp"
#include "experiment/distributed.hpp"
#include "experiment/figures.hpp"
#include "experiment/parallel_census.hpp"
#include "experiment/runner.hpp"
#include "experiment/torture.hpp"

namespace {

namespace fs = std::filesystem;
using namespace zerodeg;

struct Options {
    std::size_t seeds = 3;
    std::size_t jobs = 0;  ///< 0 = run the acceptance pair {1, 8}
    std::size_t workers = 2;
    bool season_cells = false;
    bool skip_export = false;
    bool skip_watchdog = false;
    bool skip_distributed = false;
    bool verbose = false;
    fs::path scratch;
};

/// Short, cheap season (the test-suite trick): torture is about the I/O
/// bookkeeping, not season length.
experiment::ExperimentConfig cheap_season(std::uint64_t seed, int days) {
    experiment::ExperimentConfig cfg;
    cfg.master_seed = seed;
    cfg.end = cfg.start + core::Duration::days(days);
    cfg.load.corpus.total_bytes = 64 * 1024;
    cfg.load.target_blocks = 20;
    return cfg;
}

experiment::CensusPlan make_plan(const Options& opt) {
    experiment::CensusPlan plan;
    plan.base_seed = 20100219;
    plan.seeds = opt.seeds;
    plan.make_config = [](std::size_t, std::uint64_t seed) { return cheap_season(seed, 7); };
    if (!opt.season_cells) plan.run_cell = experiment::synthetic_census;
    return plan;
}

bool census_torture(const Options& opt, std::size_t jobs) {
    std::cout << "== census torture (" << (opt.season_cells ? "season" : "trivial")
              << " cells, " << opt.seeds << " seeds, --jobs " << jobs << ") ==\n";
    experiment::TortureOptions topt;
    topt.jobs = jobs;
    topt.verbose = opt.verbose;
    const experiment::TortureReport report = experiment::torture_campaign(
        make_plan(opt), jobs, opt.scratch / ("census_jobs" + std::to_string(jobs) + ".journal"),
        topt, std::cout);
    std::cout << "  " << report.io_ops << " write points, " << report.crash_points
              << " crash points, " << report.resumes << " resumes ("
              << report.tail_repairs << " torn-tail repairs, " << report.journal_resets
              << " journal resets), " << report.mismatches << " mismatches -> "
              << (report.passed() ? "PASS" : "FAIL") << '\n';
    return report.passed();
}

/// Crash the figure export at a seed-chosen subset of its writes; after each
/// death re-export and require every file byte-identical to a reference.
bool export_torture(const Options& opt) {
    std::cout << "== export torture (seed-chosen crash subset) ==\n";
    experiment::ExperimentRunner run(cheap_season(20100219, 3));
    run.run();

    const fs::path ref_dir = opt.scratch / "export_ref";
    const fs::path tort_dir = opt.scratch / "export_torture";
    fs::create_directories(ref_dir);
    fs::create_directories(tort_dir);
    const std::vector<std::string> reference =
        experiment::export_figure_data(run, ref_dir.string());

    // Count the export's write operations, then pick a deterministic subset
    // of them as crash points (every op would re-render the season's series
    // dozens of times for little extra coverage — the journal torture above
    // already covers "every op" exhaustively).
    core::FaultyFs counter(core::FaultPlan{});
    (void)experiment::export_figure_data(run, tort_dir.string(), experiment::FigureFiles(), 1,
                                         &counter);
    const std::size_t ops = counter.op_count();
    std::set<std::size_t> crash_ops;
    std::uint64_t pick_state = 0xe4a027ULL;
    while (crash_ops.size() < std::min<std::size_t>(5, ops)) {
        crash_ops.insert(static_cast<std::size_t>(core::splitmix64(pick_state) % ops));
    }

    bool ok = true;
    for (const std::size_t op : crash_ops) {
        for (const core::CrashPhase phase :
             {core::CrashPhase::kBeforeOp, core::CrashPhase::kTornWrite}) {
            core::FaultPlan fault_plan;
            fault_plan.crash_at_op = op;
            fault_plan.crash_phase = phase;
            core::FaultyFs faulty(fault_plan);
            try {
                (void)experiment::export_figure_data(run, tort_dir.string(),
                                                     experiment::FigureFiles(), 1, &faulty);
            } catch (const core::SimulatedCrash&) {
                // expected: the export died mid-write
            }
            // The survivor re-runs the export against the real disk.
            const std::vector<std::string> redone =
                experiment::export_figure_data(run, tort_dir.string());
            for (std::size_t i = 0; i < reference.size(); ++i) {
                if (core::real_fs().read_file(redone[i]) !=
                    core::real_fs().read_file(reference[i])) {
                    std::cout << "  MISMATCH after crash at op " << op << " phase "
                              << core::to_string(phase) << ": " << redone[i] << '\n';
                    ok = false;
                }
            }
            if (opt.verbose) {
                std::cout << "  crash at op " << op << " phase " << core::to_string(phase)
                          << ": re-export byte-identical\n";
            }
        }
    }
    std::cout << "  " << ops << " export writes, " << crash_ops.size()
              << " crash ops x 2 phases -> " << (ok ? "PASS" : "FAIL") << '\n';
    return ok;
}

/// Hang each cell's first attempt on an injected stall; the watchdog must
/// cancel it and the retried campaign must still match the reference.
bool watchdog_torture(const Options& opt, std::size_t jobs) {
    std::cout << "== watchdog scenario (injected stalls, --jobs " << jobs << ") ==\n";
    experiment::CensusPlan plan = make_plan(opt);
    plan.run_cell = experiment::synthetic_census;  // hang injection needs fast cells
    const std::string want =
        experiment::render_census_table(experiment::ParallelCensus(plan, jobs).run(),
                                        plan.base_seed);

    // Every write through this FaultyFs stalls until cancelled (the poll cap
    // is a parachute, not the expected exit).
    core::FaultPlan stall_plan;
    stall_plan.stall_rate = 1.0;
    stall_plan.max_stall_polls = 60000;
    auto stalling = std::make_shared<core::FaultyFs>(stall_plan);

    const fs::path heartbeat_dir = opt.scratch / "heartbeats";
    fs::create_directories(heartbeat_dir);
    auto first_attempt_done = std::make_shared<std::map<std::uint64_t, std::atomic<bool>>>();
    for (std::size_t i = 0; i < plan.seeds; ++i) {
        (*first_attempt_done)[plan.base_seed + i] = false;
    }

    experiment::CensusPlan hung = plan;
    hung.cell_attempts = 3;
    hung.cell_deadline_ms = 150;
    hung.run_cell = [stalling, first_attempt_done,
                     heartbeat_dir](const experiment::ExperimentConfig& cfg) {
        std::atomic<bool>& done = first_attempt_done->at(cfg.master_seed);
        if (!done.exchange(true)) {
            // First attempt: the heartbeat write hangs on the injected stall
            // until the watchdog cancels this cell (TransientError).
            stalling->write_file(
                heartbeat_dir / ("cell_" + std::to_string(cfg.master_seed) + ".alive"), "alive\n");
        }
        return experiment::synthetic_census(cfg);
    };

    const experiment::CensusResult result = experiment::ParallelCensus(hung, jobs).run();
    const std::size_t hung_cells = result.harness.hung_cells;

    // The harness report is *supposed* to differ (it names the hung nodes);
    // the census itself must not.
    experiment::CensusResult scrubbed = result;
    scrubbed.harness = experiment::CensusHarnessStats{};
    const std::string got = experiment::render_census_table(scrubbed, plan.base_seed);

    bool ok = true;
    if (hung_cells < plan.seeds) {
        std::cout << "  FAIL: expected >= " << plan.seeds << " hung nodes, watchdog saw "
                  << hung_cells << '\n';
        ok = false;
    }
    if (got != want) {
        std::cout << "  FAIL: census after hung-node retries differs from reference\n";
        ok = false;
    }
    std::cout << "  " << hung_cells << " hung node(s) detected, cancelled and retried";
    if (!result.harness.hung_cell_labels.empty()) {
        std::cout << " (";
        for (std::size_t i = 0; i < result.harness.hung_cell_labels.size(); ++i) {
            if (i > 0) std::cout << ", ";
            std::cout << result.harness.hung_cell_labels[i];
        }
        std::cout << ')';
    }
    std::cout << " -> " << (ok ? "PASS" : "FAIL") << '\n';
    return ok;
}

/// Cross-process crash torture: kill worker and coordinator at every
/// transport operation; every resumed campaign must converge byte-identically.
bool distributed_scenario(const Options& opt) {
    std::cout << "== distributed torture (" << opt.workers << " workers, "
              << (opt.season_cells ? "season" : "trivial") << " cells) ==\n";
    experiment::DistributedTortureOptions topt;
    topt.workers = opt.workers;
    topt.jobs = 1;
    topt.verbose = opt.verbose;
    const experiment::DistributedTortureReport report = experiment::distributed_torture(
        make_plan(opt), opt.scratch / "distributed", topt, std::cout);
    std::cout << "  " << report.worker_send_points << " worker send points, "
              << report.coordinator_frames << " coordinator frames, " << report.crash_points
              << " kills (" << report.permanent_kills << " permanent, " << report.unfired_kills
              << " unfired), " << report.resumes << " resumes, " << report.quarantine_checks
              << " quarantine checks, " << report.mismatches << " mismatches -> "
              << (report.passed() ? "PASS" : "FAIL") << '\n';
    return report.passed();
}

int usage() {
    std::cerr << "usage: zerodeg_torture [--seeds N] [--jobs N] [--workers N]\n"
                 "                       [--cells trivial|season] [--scratch DIR]\n"
                 "                       [--skip-export] [--skip-watchdog]\n"
                 "                       [--skip-distributed] [--verbose]\n"
                 "  --jobs N    torture only that worker count (default: both 1 and 8)\n"
                 "  --workers N workers in the distributed scenario (default: 2)\n"
                 "  --cells     trivial = fast synthetic cells (default); season = real\n"
                 "              one-week seasons through the full simulation stack\n"
                 "exit codes: 0 all scenarios passed, 1 torture failure, 2 usage error\n";
    return 2;
}

Options parse_options(int argc, char** argv) {
    Options opt;
    opt.scratch = fs::temp_directory_path() / "zerodeg_torture";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw core::InvalidArgument("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--seeds") {
            opt.seeds = static_cast<std::size_t>(std::stoull(value()));
            if (opt.seeds == 0) throw core::InvalidArgument("--seeds must be positive");
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<std::size_t>(std::stoull(value()));
            if (opt.jobs == 0) throw core::InvalidArgument("--jobs must be positive");
        } else if (arg == "--cells") {
            const std::string kind = value();
            if (kind != "trivial" && kind != "season") {
                throw core::InvalidArgument("--cells wants 'trivial' or 'season', got '" + kind +
                                            "'");
            }
            opt.season_cells = (kind == "season");
        } else if (arg == "--workers") {
            opt.workers = static_cast<std::size_t>(std::stoull(value()));
            if (opt.workers == 0) throw core::InvalidArgument("--workers must be positive");
        } else if (arg == "--scratch") {
            opt.scratch = value();
        } else if (arg == "--skip-export") {
            opt.skip_export = true;
        } else if (arg == "--skip-watchdog") {
            opt.skip_watchdog = true;
        } else if (arg == "--skip-distributed") {
            opt.skip_distributed = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else {
            throw core::InvalidArgument("unknown flag '" + arg + "'");
        }
    }
    return opt;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    try {
        opt = parse_options(argc, argv);
    } catch (const core::InvalidArgument& e) {
        std::cerr << "error: " << e.what() << '\n';
        return usage();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return usage();
    }
    try {
        fs::create_directories(opt.scratch);
        const std::vector<std::size_t> jobs_list =
            opt.jobs > 0 ? std::vector<std::size_t>{opt.jobs} : std::vector<std::size_t>{1, 8};

        bool ok = true;
        for (const std::size_t jobs : jobs_list) ok = census_torture(opt, jobs) && ok;
        if (!opt.skip_export) ok = export_torture(opt) && ok;
        if (!opt.skip_watchdog) ok = watchdog_torture(opt, jobs_list.back()) && ok;
        if (!opt.skip_distributed) ok = distributed_scenario(opt) && ok;

        std::cout << (ok ? "torture: ALL SCENARIOS PASSED\n" : "torture: FAILURES (see above)\n");
        return ok ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
