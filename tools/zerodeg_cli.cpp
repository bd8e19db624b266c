// zerodeg — command-line front end over the library.
//
//   zerodeg weather   [--seed N] [--full-year] [--step-min M]
//                     [--from YYYY-MM-DD] [--to YYYY-MM-DD]
//       Print a synthetic weather trace as CSV (pipe to a file, feed back
//       with `season --trace`).
//
//   zerodeg season    [--seed N] [--end YYYY-MM-DD] [--trace FILE]
//                     [--export DIR] [--jobs N] [--checkpoint FILE] [--resume]
//                     [--collector-retries N] [--collector-buffer BYTES]
//                     [--workload archive|traffic] [--clone]
//       Run the paper's experiment season; print the census; optionally
//       export figure CSVs (written in parallel with --jobs > 1).  With
//       --checkpoint the finished census is journaled; --resume replays it
//       without re-simulating.  --workload traffic swaps the archival churn
//       for the request-serving workload (utilization -> heat -> hazard);
//       --clone duplicates each request across the tent/basement split.
//
//   zerodeg census    [--seeds N] [--jobs N] [--checkpoint FILE] [--resume]
//                     [--inject-faults SEED] [--torture] [--synthetic]
//                     [--workload archive|traffic] [--end YYYY-MM-DD]
//       Monte Carlo fault census over N seeds, sharded across N worker
//       threads (--jobs 0 = one per hardware thread).  Output is
//       byte-identical for every --jobs value — including a --resume run
//       that reuses cells from a killed campaign's checkpoint journal.
//       --inject-faults routes the journal through a deterministic faulty
//       filesystem; --torture crashes the campaign at every journal write
//       point and proves each resume byte-identical (needs --checkpoint).
//
//   zerodeg sweep     --coordinator --socket PATH --checkpoint FILE
//                     [--seeds N] [--resume] [--idle-timeout-ms N]
//                     [--spawn-workers N] [...]
//   zerodeg sweep     --worker --socket PATH --checkpoint FILE
//                     [--seeds N] [--jobs N] [--net-faults SEED] [...]
//       Distributed census: the coordinator listens on a unix socket,
//       grants pull-based leases over cell ranges, and journals cells
//       streamed by worker processes into the merged --checkpoint.  A
//       worker asks for work, simulates granted cells into its own local
//       --checkpoint (durable before any networking), streams checksummed
//       CELL frames, and resends until acked; cells already in its local
//       journal stream first, without re-simulating.  Delivery is
//       at-least-once with dedupe by cell index, and a dead worker's lease
//       is reassigned to survivors, so the merged journal — and the census
//       the coordinator prints — is byte-identical to a local `zerodeg
//       census` run no matter which process died when, as long as one
//       worker survives.  A cell that kills every worker that touches it is
//       quarantined as poison and reported loudly (coordinator exits 1).
//       --spawn-workers N launches N local workers as child processes
//       sharing the campaign flags and waits for them.
//       --net-faults injects a deterministic seed-scheduled fault plan
//       (drops, duplicates, reorders, dropped acks) into the worker's link.
//       --synthetic swaps real seasons for fast deterministic cells.
//
//   zerodeg prototype [--seed N]
//       The Feb 12-15 prototype weekend.
//
//   zerodeg help | --help
//       The synopsis plus the --resume corrupt-journal exit-code contract.
//
// Exit codes: 0 success, 1 runtime failure (I/O, corrupt input, ...),
// 2 usage error (unknown subcommand/flag, malformed value).
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/csv.hpp"
#include "core/error.hpp"
#include "core/io.hpp"
#include "core/transport.hpp"
#include "experiment/census.hpp"
#include "experiment/distributed.hpp"
#include "experiment/figures.hpp"
#include "experiment/parallel_census.hpp"
#include "experiment/prototype.hpp"
#include "experiment/report.hpp"
#include "experiment/runner.hpp"
#include "experiment/sweep_journal.hpp"
#include "experiment/torture.hpp"
#include "weather/trace_io.hpp"

namespace {

using namespace zerodeg;

using FlagMap = std::map<std::string, std::string>;

/// Flags that take no value.
const std::set<std::string> kBooleanFlags = {"full-year",   "resume", "torture",  "clone",
                                             "coordinator", "worker", "synthetic"};

/// Flags each subcommand accepts; anything else is a usage error.
const std::map<std::string, std::set<std::string>> kAllowedFlags = {
    {"weather", {"seed", "full-year", "from", "to", "step-min"}},
    {"season",
     {"seed", "end", "trace", "export", "jobs", "checkpoint", "resume", "collector-retries",
      "collector-buffer", "inject-faults", "workload", "clone"}},
    {"census",
     {"seeds", "jobs", "checkpoint", "resume", "inject-faults", "torture", "workload", "end",
      "synthetic"}},
    {"sweep",
     {"coordinator", "worker", "socket", "checkpoint", "seeds", "jobs", "workload", "end",
      "resume", "net-faults", "synthetic", "idle-timeout-ms", "spawn-workers"}},
    {"prototype", {"seed"}},
};

/// --key [value] arguments into a map; throws InvalidArgument on malformed
/// input or a flag the subcommand does not know.
FlagMap parse_flags(const std::string& cmd, int argc, char** argv, int first) {
    const std::set<std::string>& allowed = kAllowedFlags.at(cmd);
    FlagMap flags;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            throw core::InvalidArgument("unexpected argument '" + arg + "' (flags start with --)");
        }
        const std::string key = arg.substr(2);
        if (!allowed.contains(key)) {
            throw core::InvalidArgument("--" + key + " is not a flag of 'zerodeg " + cmd + "'");
        }
        if (key == "worker" && i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            throw core::InvalidArgument("--worker takes no value, got '" +
                                        std::string(argv[i + 1]) +
                                        "' (static I/K shards are gone; run bare --worker "
                                        "processes, which pull leases)");
        }
        if (kBooleanFlags.contains(key)) {
            // insert_or_assign instead of operator[]=: gcc 12's -Wrestrict
            // false-positives on the inlined char* assignment.
            flags.insert_or_assign(key, std::string("1"));
            continue;
        }
        if (i + 1 >= argc) {
            throw core::InvalidArgument("missing value for --" + key);
        }
        flags.insert_or_assign(key, std::string(argv[++i]));
    }
    if (flags.contains("clone") &&
        (!flags.contains("workload") || flags.at("workload") != "traffic")) {
        throw core::InvalidArgument("--clone needs --workload traffic");
    }
    if (flags.contains("resume") && !flags.contains("checkpoint")) {
        throw core::InvalidArgument("--resume needs --checkpoint <file> to resume from");
    }
    if (flags.contains("torture")) {
        if (!flags.contains("checkpoint")) {
            throw core::InvalidArgument("--torture needs --checkpoint <file> as scratch");
        }
        if (flags.contains("resume")) {
            throw core::InvalidArgument(
                "--torture and --resume are exclusive (torture manages the journal itself)");
        }
        if (flags.contains("inject-faults")) {
            throw core::InvalidArgument(
                "--torture and --inject-faults are exclusive (torture schedules its own faults)");
        }
    }
    return flags;
}

/// When --inject-faults SEED is given, build the FaultyFs the durable
/// writers go through; returns nullptr (real filesystem) otherwise.
std::unique_ptr<core::FaultyFs> make_fault_fs(const FlagMap& flags) {
    if (!flags.count("inject-faults")) return nullptr;
    core::FaultPlan plan;
    plan.seed = [&flags] {
        try {
            return core::parse_csv_u64(flags.at("inject-faults"));
        } catch (const core::Error&) {
            throw core::InvalidArgument("--inject-faults wants a nonnegative integer seed, got '" +
                                        flags.at("inject-faults") + "'");
        }
    }();
    plan.write_fault_rate = 0.15;
    plan.rename_fault_rate = 0.05;
    return std::make_unique<core::FaultyFs>(plan);
}

/// The post-run one-liner for --inject-faults: what was thrown at the
/// writers and how many bounded retries absorbed it.
void print_fault_stats(const core::FaultyFs& faulty, int retries) {
    std::cout << "fault injection: " << faulty.fault_trace().size() << " fault(s) over "
              << faulty.op_count() << " io ops; " << retries << " transient retr"
              << (retries == 1 ? "y" : "ies") << " absorbed\n";
}

/// Strict nonnegative-integer flag ("--jobs -3" and "--seeds x" both die
/// with a diagnostic naming the flag, not a stoi backtrace).
std::uint64_t flag_u64(const FlagMap& flags, const std::string& name, std::uint64_t fallback) {
    const auto it = flags.find(name);
    if (it == flags.end()) return fallback;
    try {
        return core::parse_csv_u64(it->second);
    } catch (const core::Error&) {
        throw core::InvalidArgument("--" + name + " wants a nonnegative integer, got '" +
                                    it->second + "'");
    }
}

/// --jobs value: 0 = one worker per hardware thread; absent = serial.
std::size_t parse_jobs(const FlagMap& flags) {
    const std::uint64_t v = flag_u64(flags, "jobs", 1);
    return v == 0 ? core::TaskPool::hardware_workers() : static_cast<std::size_t>(v);
}

/// --workload value: which workload drives the season's fleet.
experiment::WorkloadKind parse_workload(const FlagMap& flags) {
    const auto it = flags.find("workload");
    if (it == flags.end()) return experiment::WorkloadKind::kArchive;
    if (it->second == "archive") return experiment::WorkloadKind::kArchive;
    if (it->second == "traffic") return experiment::WorkloadKind::kTraffic;
    throw core::InvalidArgument("--workload must be 'traffic' or 'archive', got '" + it->second +
                                "'");
}

core::TimePoint parse_date(const std::string& s) {
    int y = 0, m = 0, d = 0;
    if (std::sscanf(s.c_str(), "%d-%d-%d", &y, &m, &d) != 3) {
        throw core::InvalidArgument("bad date (want YYYY-MM-DD): " + s);
    }
    return core::TimePoint::from_date(y, m, d);
}

int cmd_weather(const FlagMap& flags) {
    const std::uint64_t seed = flag_u64(flags, "seed", 20100219ULL);
    const bool full_year = flags.count("full-year") > 0;
    weather::WeatherConfig cfg =
        full_year ? weather::helsinki_full_year_config() : weather::helsinki_2010_config();
    const core::TimePoint from = flags.count("from")
                                     ? parse_date(flags.at("from"))
                                     : core::TimePoint::from_date(2010, 2, 12);
    const core::TimePoint to = flags.count("to") ? parse_date(flags.at("to"))
                                                 : core::TimePoint::from_date(2010, 3, 27);
    const std::uint64_t step_min = flag_u64(flags, "step-min", 10);
    if (step_min == 0) throw core::InvalidArgument("--step-min must be positive");
    weather::WeatherModel model(cfg, seed);
    const auto trace =
        weather::generate_trace(model, from, to, core::Duration::minutes(step_min));
    weather::write_trace(std::cout, trace);
    return 0;
}

void print_census(const experiment::FaultCensus& c) {
    std::cout << "hosts: " << c.tent_hosts << " tent / " << c.basement_hosts << " basement\n"
              << "system failures: " << c.system_failures << " (" << c.transient_failures
              << " transient, " << c.permanent_failures << " permanent)\n"
              << "hosts failed: " << c.tent_hosts_failed << " tent, "
              << c.basement_hosts_failed << " basement  (fleet rate "
              << experiment::fmt_pct(c.fleet_failure_rate()) << ", paper 5.6%, Intel 4.46%)\n"
              << "sensor incidents: " << c.sensor_incidents
              << ", switch failures: " << c.switch_failures
              << ", fan faults: " << c.fan_faults << ", disk faults: " << c.disk_faults << '\n'
              << "load runs: " << c.load_runs << ", wrong hashes: " << c.wrong_hashes
              << " (tent " << c.wrong_hashes_tent << " / basement " << c.wrong_hashes_basement
              << ")\n";
    if (c.wrong_hashes > 0) {
        std::cout << "page ops per corruption: "
                  << experiment::fmt(1.0 / c.page_fault_ratio() / 1e6, 0)
                  << " million (paper: ~570 million)\n";
    }
    // Traffic lines appear only for traffic seasons, keeping archive output
    // byte-identical to earlier releases.
    if (c.requests_completed + c.requests_dropped > 0) {
        std::cout << "requests: " << c.requests_completed << " completed, " << c.requests_dropped
                  << " dropped, deadline misses " << c.deadline_misses << " ("
                  << experiment::fmt_pct(c.deadline_miss_fraction()) << ")\n"
                  << "p99 sojourn: "
                  << experiment::fmt(static_cast<double>(c.p99_sojourn_us) / 1e6, 2) << " s\n";
    }
}

int cmd_season(const FlagMap& flags) {
    experiment::ExperimentConfig cfg;
    cfg.master_seed = flag_u64(flags, "seed", cfg.master_seed);
    if (flags.count("end")) cfg.end = parse_date(flags.at("end"));
    if (flags.count("trace")) {
        std::ifstream in(flags.at("trace"));
        if (!in) {
            throw core::IoError("cannot open trace file '" + flags.at("trace") + "'");
        }
        cfg.weather_trace = core::with_context("reading --trace " + flags.at("trace"),
                                               [&in] { return weather::read_trace(in); });
    }
    const std::uint64_t retries = flag_u64(flags, "collector-retries", 1);
    if (retries == 0) throw core::InvalidArgument("--collector-retries must be >= 1");
    cfg.collector_retry.max_attempts = static_cast<int>(retries);
    cfg.collector_retry.buffer_capacity_bytes = flag_u64(flags, "collector-buffer", 0);
    cfg.workload = parse_workload(flags);
    cfg.traffic.clone_across_split = flags.count("clone") > 0;
    experiment::validate(cfg);

    // With --checkpoint the season runs as a 1-cell campaign whose journal
    // binds this exact config; --resume replays the recorded census without
    // re-simulating (the envelope/export need a live run and are skipped).
    experiment::CensusPlan plan;
    plan.base_seed = cfg.master_seed;
    plan.seeds = 1;
    plan.make_config = [&cfg](std::size_t, std::uint64_t) { return cfg; };
    const experiment::ParallelCensus campaign(plan, 1);
    const std::unique_ptr<core::FaultyFs> faulty = make_fault_fs(flags);
    std::unique_ptr<experiment::SweepJournal> journal;
    if (flags.count("checkpoint")) {
        journal = std::make_unique<experiment::SweepJournal>(
            flags.at("checkpoint"), campaign.journal_key(), flags.count("resume") > 0,
            faulty.get());
    }

    std::cout << "season " << cfg.start.date_string() << " .. " << cfg.end.date_string()
              << " (seed " << cfg.master_seed
              << (cfg.weather_trace.empty() ? ", synthetic weather" : ", trace-driven")
              << (cfg.workload == experiment::WorkloadKind::kTraffic
                      ? (cfg.traffic.clone_across_split ? ", traffic workload, cloned"
                                                        : ", traffic workload")
                      : "")
              << ")\n";

    if (journal && journal->complete()) {
        std::cout << "checkpoint " << flags.at("checkpoint")
                  << " is complete; replaying the recorded census\n";
        print_census(*journal->find(0));
        std::cout << "(envelope stats and --export need a live run; delete the checkpoint to "
                     "re-simulate)\n";
        return 0;
    }

    experiment::ExperimentRunner run(cfg);
    run.run();
    const experiment::FaultCensus census = experiment::take_census(run);
    if (journal) journal->record(0, census);

    print_census(census);
    if (run.has_traffic()) {
        std::cout << "traffic: mean utilization "
                  << experiment::fmt_pct(run.traffic().mean_utilization()) << ", mean sojourn "
                  << experiment::fmt(run.traffic().slo().mean_sojourn_seconds(), 2)
                  << " s, clones cancelled " << run.traffic().clones_cancelled() << "\n";
    }
    std::cout << "tent envelope: "
              << experiment::fmt_pct(run.tent_envelope().fraction_within())
              << " of the season inside ASHRAE-allowable\n";

    if (flags.count("export")) {
        std::filesystem::create_directories(flags.at("export"));
        const auto written = experiment::export_figure_data(
            run, flags.at("export"), experiment::FigureFiles(), parse_jobs(flags),
            faulty.get());
        std::cout << "exported " << written.size() << " files to " << flags.at("export")
                  << '\n';
    }
    if (faulty) print_fault_stats(*faulty, journal ? journal->io_retries() : 0);
    return 0;
}

/// The campaign axes `census` and `sweep` share: --seeds, --workload, --end,
/// --synthetic.  Both commands building the plan the same way is what gives
/// the coordinator's merged journal the same campaign key a local census
/// would use, so checkpoints move freely between local and distributed runs.
experiment::CensusPlan census_plan_from_flags(const FlagMap& flags) {
    const std::uint64_t seeds = flag_u64(flags, "seeds", 10);
    if (seeds == 0) throw core::InvalidArgument("--seeds must be positive");
    experiment::CensusPlan plan;
    plan.seeds = static_cast<std::size_t>(seeds);
    // --workload/--end reshape every cell's season the same way.
    const experiment::WorkloadKind workload = parse_workload(flags);
    std::optional<core::TimePoint> end;
    if (flags.count("end")) end = parse_date(flags.at("end"));
    if (workload != experiment::WorkloadKind::kArchive || end) {
        plan.make_config = [workload, end](std::size_t, std::uint64_t seed) {
            experiment::ExperimentConfig config;
            config.master_seed = seed;
            config.workload = workload;
            if (end) config.end = *end;
            return config;
        };
    }
    // Fast deterministic cells for smoke runs; the journal's config hash
    // cannot see a run_cell override, so never mix --synthetic and real
    // checkpoints (same contract as CensusPlan::run_cell documents).
    if (flags.count("synthetic")) plan.run_cell = experiment::synthetic_census;
    return plan;
}

int cmd_census(const FlagMap& flags) {
    const experiment::CensusPlan plan = census_plan_from_flags(flags);
    const std::size_t jobs = parse_jobs(flags);

    if (flags.count("torture")) {
        // Crash the campaign at every journal write point, resume each
        // time, and require the resumed tables byte-identical to an
        // uninterrupted run.  Exit 0 only when every crash point passes.
        experiment::TortureOptions options;
        options.jobs = jobs;
        const experiment::TortureReport report = experiment::torture_campaign(
            plan, jobs, flags.at("checkpoint"), options, std::cerr);
        std::cout << "torture: " << report.io_ops << " write points, " << report.crash_points
                  << " crash points, " << report.resumes << " resumes ("
                  << report.tail_repairs << " torn-tail repairs, " << report.journal_resets
                  << " journal resets), " << report.mismatches << " mismatches -> "
                  << (report.passed() ? "PASS" : "FAIL") << '\n';
        return report.passed() ? 0 : 1;
    }

    const experiment::ParallelCensus campaign(plan, jobs);
    const std::unique_ptr<core::FaultyFs> faulty = make_fault_fs(flags);
    experiment::CensusResult result;
    int io_retries = 0;
    if (flags.count("checkpoint")) {
        experiment::SweepJournal journal(flags.at("checkpoint"), campaign.journal_key(),
                                         flags.count("resume") > 0, faulty.get());
        if (journal.recovered_tail_records() > 0) {
            std::cout << "checkpoint repair: dropped " << journal.recovered_tail_records()
                      << " torn tail record(s); those cells will be re-simulated\n";
        }
        if (journal.completed() > 0) {
            std::cout << "resuming: " << journal.completed() << "/" << plan.seeds
                      << " cells from " << flags.at("checkpoint") << '\n';
        }
        result = campaign.run(journal);
        io_retries = journal.io_retries();
    } else {
        result = campaign.run();
    }

    std::cout << experiment::render_census_table(result, plan.base_seed);
    if (faulty) print_fault_stats(*faulty, io_retries);
    return 0;
}

/// The argv for one spawned worker: the campaign flags are
/// forwarded verbatim so its journal key matches the coordinator's.
std::vector<std::string> spawned_worker_argv(const FlagMap& flags, std::size_t index) {
    std::vector<std::string> argv = {"/proc/self/exe", "sweep", "--worker", "--socket",
                                     flags.at("socket"), "--checkpoint",
                                     flags.at("checkpoint") + ".worker" + std::to_string(index)};
    for (const char* forwarded :
         {"seeds", "jobs", "workload", "end", "net-faults"}) {
        const auto it = flags.find(forwarded);
        if (it == flags.end()) continue;
        argv.push_back("--" + it->first);
        argv.push_back(it->second);
    }
    if (flags.count("synthetic")) argv.push_back("--synthetic");
    return argv;
}

int cmd_sweep_coordinator(const FlagMap& flags, const experiment::CensusPlan& plan) {
    experiment::CoordinatorOptions opts;
    opts.resume = flags.count("resume") > 0;
    // --idle-timeout-ms bounds how long the coordinator waits while hearing
    // nothing at all — no fresh link, no valid frame (serve polls every ~1ms
    // when idle; any valid frame, heartbeats included, resets the budget).
    // 0 = wait until the campaign resolves or every worker is silent.
    const std::uint64_t idle_ms = flag_u64(flags, "idle-timeout-ms", 0);
    opts.idle_give_up_polls = static_cast<int>(idle_ms);
    // Lease chatter (grants, expiries, quarantines, progress/ETA) goes to
    // stderr so stdout stays the byte-stable census surface.
    opts.log = [](const std::string& line) { std::cerr << line << '\n'; };
    experiment::CoordinatorService service(plan, flags.at("checkpoint"), opts);

    const std::unique_ptr<core::Listener> listener = core::listen_unix(flags.at("socket"));
    std::cout << "coordinator: campaign of " << plan.seeds << " cells on " << flags.at("socket")
              << " (" << service.merged() << " already merged)\n";

    // --spawn-workers: launch N local workers (via the transport
    // seam's process spawner) once the socket is listening, serve them, then
    // reap.  Each gets its own local journal next to the merged one.
    std::vector<core::SpawnedProcess> children;
    if (flags.count("spawn-workers")) {
        const std::uint64_t n = flag_u64(flags, "spawn-workers", 0);
        if (n == 0) throw core::InvalidArgument("--spawn-workers must be positive");
        for (std::uint64_t i = 0; i < n; ++i) {
            children.push_back(core::spawn_process(spawned_worker_argv(flags, i)));
        }
        std::cerr << "coordinator: spawned " << n << " local worker(s)\n";
    }

    const experiment::CoordinatorReport report = service.serve(*listener);

    int worker_failures = 0;
    for (core::SpawnedProcess& child : children) {
        if (core::wait_process(child) != 0) ++worker_failures;
    }
    if (worker_failures > 0) {
        std::cerr << "coordinator: " << worker_failures << " spawned worker(s) exited with "
                     "a failure\n";
    }

    std::cout << "coordinator: " << report.frames << " frames from " << report.links_accepted
              << " worker link(s); " << report.cells_recorded << " cells recorded, "
              << report.duplicates << " duplicate(s) deduped, " << report.acks_sent
              << " acks\n";
    if (report.leases_granted > 0) {
        std::cout << "coordinator: " << report.leases_granted << " lease(s) granted, "
                  << report.leases_expired << " expired/reassigned\n";
    }
    if (report.quarantined > 0) {
        std::cout << "POISON: " << report.quarantined << " cell(s) quarantined — every lease "
                     "over them died under " << experiment::kMaxLeaseAttempts
                  << " distinct workers; the campaign resolved but the census has holes\n";
        return 1;
    }
    if (!report.completed) {
        std::cout << "campaign incomplete: " << plan.seeds - service.merged()
                  << " cell(s) never arrived (workers still hold them in their local "
                     "journals)\n";
        return 1;
    }
    std::cout << experiment::render_census_table(service.result(), plan.base_seed);
    return worker_failures > 0 ? 1 : 0;
}

int cmd_sweep_worker(const FlagMap& flags, const experiment::CensusPlan& plan) {
    const std::string socket = flags.at("socket");

    // Bounded connect-wait: the coordinator may not be listening yet (shell
    // scripts start both concurrently).  ~5s of 50ms retries, then nullptr —
    // run_worker degrades to local-journal-only mode, never fails the cells.
    const auto dial = [socket]() -> std::unique_ptr<core::Transport> {
        for (int attempt = 0; attempt < 100; ++attempt) {
            try {
                return core::connect_unix(socket);
            } catch (const core::TransportClosed&) {
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
            }
        }
        return nullptr;
    };

    experiment::WorkerOptions opts;
    opts.jobs = parse_jobs(flags);
    opts.resume = true;  // local cells are always worth reusing
    opts.reconnect = dial;
    opts.log = [](const std::string& line) { std::cerr << line << '\n'; };

    std::unique_ptr<core::Transport> link = dial();
    if (link && flags.count("net-faults")) {
        // A deterministic lossy link: same seed, same fault schedule.  The
        // resend/ack/dedupe machinery must make it invisible in the output.
        core::TransportFaultPlan faults;
        faults.seed = flag_u64(flags, "net-faults", 1);
        faults.drop_rate = 0.1;
        faults.dup_rate = 0.1;
        faults.reorder_rate = 0.05;
        faults.ack_drop_rate = 0.05;
        link = std::make_unique<core::FaultyTransport>(faults, "worker.0", std::move(link));
        opts.frame_attempts = 8;  // lossy link: a deeper resend budget
    }

    const experiment::WorkerReport report =
        run_worker(plan, 0, flags.at("checkpoint"), std::move(link), opts);
    std::cout << "worker (lease mode): " << report.leases_held << " lease(s) held, "
              << report.cells_computed << " simulated, " << report.cells_reused << " reused, "
              << report.acked << " acked";
    if (report.resends + report.drops_absorbed > 0) {
        std::cout << " (" << report.drops_absorbed << " drop(s), " << report.resends
                  << " resend(s))";
    }
    std::cout << '\n';
    if (report.degraded) {
        std::cout << "worker: degraded — coordinator unreachable; " << report.buffered
                  << " cell(s) buffered in " << flags.at("checkpoint")
                  << " (re-run to stream them)\n";
    }
    return 0;
}

int cmd_sweep(const FlagMap& flags) {
    const bool coordinator = flags.count("coordinator") > 0;
    const bool worker = flags.count("worker") > 0;
    if (coordinator == worker) {
        throw core::InvalidArgument(
            "zerodeg sweep needs exactly one of --coordinator or --worker");
    }
    if (flags.count("spawn-workers") && !coordinator) {
        throw core::InvalidArgument("--spawn-workers belongs to the --coordinator side");
    }
    if (!flags.count("socket")) {
        throw core::InvalidArgument("zerodeg sweep needs --socket PATH (a unix socket)");
    }
    if (!flags.count("checkpoint")) {
        throw core::InvalidArgument(
            "zerodeg sweep needs --checkpoint FILE (merged journal for the coordinator, "
            "local journal for a worker)");
    }
    const experiment::CensusPlan plan = census_plan_from_flags(flags);
    return coordinator ? cmd_sweep_coordinator(flags, plan) : cmd_sweep_worker(flags, plan);
}

int cmd_prototype(const FlagMap& flags) {
    experiment::PrototypeConfig cfg;
    cfg.master_seed = flag_u64(flags, "seed", cfg.master_seed);
    const auto r = experiment::run_prototype(cfg);
    std::cout << "prototype weekend " << cfg.start.date_string() << " .. "
              << cfg.end.date_string() << '\n'
              << "outside min/mean: " << experiment::fmt(r.outside_min.value(), 1) << " / "
              << experiment::fmt(r.outside_mean.value(), 1)
              << " degC (paper: -10.2 / -9.2)\n"
              << "coldest CPU reading: " << experiment::fmt(r.cpu_min_reported.value(), 1)
              << " degC (paper: -4)\n"
              << "survived: " << (r.survived ? "yes" : "NO")
              << ", SMART clean: " << (r.smart_ok ? "yes" : "NO") << '\n';
    return 0;
}

void synopsis(std::ostream& out) {
    out << "usage: zerodeg <weather|season|census|sweep|prototype|help> [--flags]\n"
           "  weather   [--seed N] [--full-year] [--from D] [--to D] [--step-min M]\n"
           "  season    [--seed N] [--end D] [--trace FILE] [--export DIR] [--jobs N]\n"
           "            [--checkpoint FILE] [--resume] [--collector-retries N]\n"
           "            [--collector-buffer BYTES] [--inject-faults SEED]\n"
           "            [--workload archive|traffic] [--clone]\n"
           "  census    [--seeds N] [--jobs N] [--checkpoint FILE] [--resume]\n"
           "            [--inject-faults SEED] [--torture]\n"
           "            [--workload archive|traffic] [--end D] [--synthetic]\n"
           "            (--jobs 0 = all hardware threads)\n"
           "  sweep     --coordinator --socket PATH --checkpoint FILE [--seeds N]\n"
           "            [--resume] [--idle-timeout-ms N] [--spawn-workers N]\n"
           "  sweep     --worker --socket PATH --checkpoint FILE [--seeds N]\n"
           "            [--jobs N] [--net-faults SEED]\n"
           "            (both sweep modes: [--workload archive|traffic] [--end D]\n"
           "             [--synthetic])\n"
           "  prototype [--seed N]\n"
           "exit codes: 0 ok, 1 runtime failure, 2 usage error\n";
}

int usage() {
    synopsis(std::cerr);
    return 2;
}

int cmd_help() {
    synopsis(std::cout);
    std::cout
        << "\nfault injection and torture:\n"
           "  --inject-faults SEED  route the checkpoint journal (and season exports)\n"
           "                        through a deterministic faulty filesystem: short\n"
           "                        writes, ENOSPC, failed fsync/rename.  The bounded\n"
           "                        tmp+rename retries absorb them; a stats line\n"
           "                        reports what was thrown and absorbed.\n"
           "  --torture             (census) crash the campaign at every journal write\n"
           "                        point, resume each time, and require output\n"
           "                        byte-identical to an uninterrupted run.  Needs\n"
           "                        --checkpoint as scratch; exit 1 on any mismatch.\n"
           "\ndistributed sweeps (zerodeg sweep):\n"
           "  Start one --coordinator and N bare --worker processes sharing a unix\n"
           "  --socket (or let the coordinator --spawn-workers N itself).  Workers\n"
           "  pull leases: the coordinator grants cell ranges, workers simulate\n"
           "  them into their own local journal first (durable before any\n"
           "  networking), then stream checksummed cell frames; the coordinator\n"
           "  journals, acks, and dedupes replays, so the merged --checkpoint is\n"
           "  byte-identical to a local census run no matter which process died\n"
           "  when — a dead worker's lease is reassigned to the survivors\n"
           "  (liveness is counted in protocol ops, never wall clocks).  A cell\n"
           "  that kills every worker that touches it is quarantined as poison\n"
           "  and the coordinator exits 1, loudly.  A worker re-run over the same\n"
           "  local --checkpoint streams the cells it already holds without\n"
           "  re-simulating them.\n"
           "  --net-faults SEED makes the worker's link deterministically lossy\n"
           "  (drops, duplicates, reorders, dropped acks) — the output must not\n"
           "  change.\n"
           "\nresuming from a damaged checkpoint (--resume):\n"
           "  exit 0  a torn tail record (crash mid-append) is dropped with a warning\n"
           "          on stderr, truncated away on disk, and its cell re-simulated;\n"
           "          everything before it is reused.\n"
           "  exit 1  any other damage -- bad magic, truncated header, corruption\n"
           "          before the last record, or a journal written by a different\n"
           "          sweep/binary (stale fingerprint).  The journal is left as-is;\n"
           "          delete it to start over.\n"
           "  exit 2  usage errors (e.g. --resume without --checkpoint).\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h") return cmd_help();
    if (!kAllowedFlags.contains(cmd)) {
        std::cerr << "error: unknown subcommand '" << cmd << "'\n";
        return usage();
    }
    try {
        const FlagMap flags = parse_flags(cmd, argc, argv, 2);
        if (cmd == "weather") return cmd_weather(flags);
        if (cmd == "season") return cmd_season(flags);
        if (cmd == "census") return cmd_census(flags);
        if (cmd == "sweep") return cmd_sweep(flags);
        return cmd_prototype(flags);
    } catch (const core::InvalidArgument& e) {
        // Usage errors print one line + the synopsis and exit 2.
        std::cerr << "error: " << e.what() << '\n';
        return usage();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
