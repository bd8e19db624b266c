// Worker/coordinator sweeps over the transport seam: lease scheduling,
// convergence to byte-identical output for any worker count and any
// FaultyTransport seed, op-counted lease expiry, zombie re-admission,
// poison-cell quarantine, and the cross-process crash torture
// (kill the worker at every send — transiently and permanently — and the
// coordinator at every frame, resume, compare).
#include "experiment/distributed.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/transport.hpp"
#include "experiment/shard_protocol.hpp"
#include "experiment/sweep_journal.hpp"
#include "experiment/torture.hpp"
#include "monitoring/netsim.hpp"

namespace zerodeg::experiment {
namespace {

namespace fs = std::filesystem;

CensusPlan synthetic_plan(std::size_t seeds, std::uint64_t base_seed = 42) {
    CensusPlan plan;
    plan.base_seed = base_seed;
    plan.seeds = seeds;
    plan.run_cell = [](const ExperimentConfig& cfg) { return synthetic_census(cfg); };
    return plan;
}

fs::path scratch_dir(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("distributed_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string local_reference_render(const CensusPlan& plan) {
    return render_census_table(run_census(plan, 1), plan.base_seed);
}

TEST(RunDistributed, MatchesTheLocalRunByteForByte) {
    const CensusPlan plan = synthetic_plan(5);
    const fs::path dir = scratch_dir("matches_local");

    DistributedOptions opts;
    opts.workers = 2;
    const DistributedOutcome out = run_distributed(plan, dir, opts);

    EXPECT_TRUE(out.coordinator.completed);
    EXPECT_EQ(out.coordinator.cells_recorded, 5u);
    EXPECT_EQ(out.coordinator.links_accepted, 2u);
    EXPECT_FALSE(out.coordinator_crashed);
    for (const WorkerReport& w : out.workers) {
        EXPECT_TRUE(w.coordinator_reached);
        EXPECT_FALSE(w.degraded);
        EXPECT_EQ(w.buffered, 0u);
    }
    EXPECT_EQ(render_census_table(out.result, plan.base_seed), local_reference_render(plan));

    // The merged journal is byte-identical to a local journaled campaign.
    const fs::path ref = dir / "local-reference.journal";
    const ParallelCensus census(plan, 1);
    SweepJournal journal(ref, census.journal_key(), false);
    (void)census.run(journal);
    EXPECT_EQ(slurp(merged_journal_path(dir)), slurp(ref));
}

TEST(RunDistributed, WorkerCountIsInvisibleInTheOutput) {
    const CensusPlan plan = synthetic_plan(7);
    const std::string reference = local_reference_render(plan);
    for (std::size_t workers : {1u, 2u, 3u}) {
        const fs::path dir = scratch_dir("workers_" + std::to_string(workers));
        DistributedOptions opts;
        opts.workers = workers;
        const DistributedOutcome out = run_distributed(plan, dir, opts);
        ASSERT_TRUE(out.coordinator.completed) << workers << " workers";
        EXPECT_EQ(render_census_table(out.result, plan.base_seed), reference)
            << workers << " workers";
    }
}

TEST(RunDistributed, LossyLinksConvergeViaResendAndDedupe) {
    const CensusPlan plan = synthetic_plan(6);
    const std::string reference = local_reference_render(plan);
    // Several fault seeds, all lossy in every way at once: drops charge the
    // resend budget, duplicates exercise coordinator dedupe, reorders and
    // dropped acks force replays.  The output must never notice.
    for (const std::uint64_t seed : {7u, 19u, 1001u}) {
        const fs::path dir = scratch_dir("lossy_" + std::to_string(seed));
        DistributedOptions opts;
        opts.workers = 2;
        opts.frame_attempts = 8;
        opts.ack_timeout_ms = 100;  // dropped acks should charge resends fast
        core::TransportFaultPlan faults;
        faults.seed = seed;
        faults.drop_rate = 0.15;
        faults.dup_rate = 0.15;
        faults.reorder_rate = 0.1;
        faults.ack_drop_rate = 0.1;
        opts.worker_faults.assign(opts.workers, faults);
        const DistributedOutcome out = run_distributed(plan, dir, opts);
        ASSERT_TRUE(out.coordinator.completed) << "seed " << seed;
        EXPECT_EQ(render_census_table(out.result, plan.base_seed), reference)
            << "seed " << seed;
        const std::size_t churn = out.coordinator.duplicates + out.workers[0].drops_absorbed +
                                  out.workers[0].resends + out.workers[1].drops_absorbed +
                                  out.workers[1].resends;
        EXPECT_GT(churn, 0u) << "seed " << seed << ": the fault plan injected nothing";
    }
}

TEST(RunDistributed, DisconnectedWorkerReconnectsAndFinishes) {
    const CensusPlan plan = synthetic_plan(6);
    const fs::path dir = scratch_dir("reconnect");
    DistributedOptions opts;
    opts.workers = 2;
    core::TransportFaultPlan faults;
    faults.seed = 5;
    faults.disconnect_rate = 0.35;  // the first link will not survive
    opts.worker_faults = {faults};  // worker 1 keeps a clean link
    const DistributedOutcome out = run_distributed(plan, dir, opts);
    ASSERT_TRUE(out.coordinator.completed);
    EXPECT_EQ(render_census_table(out.result, plan.base_seed), local_reference_render(plan));
    EXPECT_GT(out.workers[0].reconnects, 0);
    EXPECT_GT(out.coordinator.links_accepted, 2u);  // the re-dial shows up
}

TEST(RunDistributed, ZeroRetryPolicyConvergesViaLeaseRegrant) {
    const CensusPlan plan = synthetic_plan(6);
    const fs::path dir = scratch_dir("zero_retry");
    DistributedOptions opts;
    opts.workers = 1;
    opts.frame_attempts = 1;  // the paper's collector: one attempt, no retry
    opts.ack_timeout_ms = 100;
    core::TransportFaultPlan faults;
    faults.seed = 3;
    faults.drop_rate = 0.4;
    opts.worker_faults = {faults};
    const DistributedOutcome out = run_distributed(plan, dir, opts);
    // No frame is ever resent within one delivery attempt (frame_attempts 1),
    // yet nothing is lost: the worker's next pull makes the coordinator
    // re-announce the incomplete lease, and the locally journaled cells
    // stream again until acked.  The campaign converges anyway.
    ASSERT_TRUE(out.coordinator.completed);
    EXPECT_EQ(out.workers[0].resends, 0u);
    EXPECT_GT(out.workers[0].drops_absorbed, 0u);
    EXPECT_FALSE(out.workers[0].degraded);
    EXPECT_EQ(render_census_table(out.result, plan.base_seed), local_reference_render(plan));
}

TEST(RunDistributed, SerialWorkersRetryTransientCellsWithinCellAttempts) {
    // Every cell throws TransientError on its first attempt.  A serial
    // worker (worker_jobs 1) must spend the plan's cell_attempts budget on
    // it just as ParallelCensus does, not let the error escape the worker.
    CensusPlan plan = synthetic_plan(6);
    plan.cell_attempts = 2;
    auto mutex = std::make_shared<std::mutex>();
    auto failed_once = std::make_shared<std::set<std::uint64_t>>();
    plan.run_cell = [mutex, failed_once](const ExperimentConfig& cfg) -> FaultCensus {
        {
            const std::lock_guard lock(*mutex);
            if (failed_once->insert(cfg.master_seed).second) {
                throw core::TransientError("first attempt of every cell fails");
            }
        }
        return synthetic_census(cfg);
    };
    const fs::path dir = scratch_dir("serial_cell_retry");
    DistributedOptions opts;
    opts.workers = 2;
    opts.worker_jobs = 1;
    const DistributedOutcome out = run_distributed(plan, dir, opts);
    ASSERT_TRUE(out.coordinator.completed);
    EXPECT_EQ(failed_once->size(), plan.seeds);

    // The journal key cannot see run_cell, so the clean synthetic plan's
    // local journal is the byte reference.
    const fs::path ref = dir / "local-reference.journal";
    const ParallelCensus census(synthetic_plan(6), 1);
    SweepJournal journal(ref, census.journal_key(), false);
    (void)census.run(journal);
    EXPECT_EQ(slurp(merged_journal_path(dir)), slurp(ref));
}

TEST(RunDistributed, PermanentWorkerDeathIsAbsorbedBySurvivors) {
    const CensusPlan plan = synthetic_plan(6);
    const fs::path dir = scratch_dir("permadeath");
    DistributedOptions opts;
    opts.workers = 2;
    opts.restart_crashed_workers = false;  // nobody reboots this node
    opts.worker_faults.assign(2, core::TransportFaultPlan{});
    opts.worker_faults[1].crash_at_send = 4;  // mid-lease, after some chatter
    opts.worker_faults[1].crash_phase = core::NetCrashPhase::kBeforeOp;
    const DistributedOutcome out = run_distributed(plan, dir, opts);
    // The survivor absorbs the dead worker's lease; output does not move.
    ASSERT_TRUE(out.coordinator.completed);
    EXPECT_EQ(render_census_table(out.result, plan.base_seed), local_reference_render(plan));
    if (out.worker_crashed[1]) {
        EXPECT_GE(out.coordinator.links_dropped, 1u);
        EXPECT_GE(out.coordinator.leases_expired, 0u);
    }
}

TEST(RunDistributed, PoisonCellIsQuarantinedAfterMaxLeaseAttempts) {
    CensusPlan plan = synthetic_plan(4);
    const std::size_t poison = 3;
    plan.run_cell = [poison, base = plan.base_seed](const ExperimentConfig& cfg) -> FaultCensus {
        if (cfg.master_seed == base + poison) throw core::SimulatedCrash("poison cell");
        return synthetic_census(cfg);
    };
    const fs::path dir = scratch_dir("poison");
    DistributedOptions opts;
    opts.workers = 2;
    opts.lease_chunk = 1;  // the poison cell shares its lease with nobody
    opts.restart_crashed_workers = true;
    opts.max_lease_attempts = 3;
    const DistributedOutcome out = run_distributed(plan, dir, opts);
    // Three distinct workers died on cell 3; it is quarantined, the campaign
    // resolves (no wedge) but is NOT complete — the table would have a hole.
    EXPECT_TRUE(out.coordinator.resolved);
    EXPECT_FALSE(out.coordinator.completed);
    EXPECT_EQ(out.coordinator.quarantined, 1u);
    EXPECT_GE(out.coordinator.leases_expired, 3u);
}

TEST(CoordinatorService, HeartbeatsKeepAnIdleCoordinatorAlive) {
    const CensusPlan plan = synthetic_plan(3);
    const fs::path dir = scratch_dir("idle_reset");
    CoordinatorOptions copts;
    copts.idle_give_up_polls = 200;  // ~200ms of true silence
    CoordinatorService service(plan, merged_journal_path(dir), copts);
    core::LoopbackListener listener;
    CoordinatorReport report;
    std::thread coordinator([&] {
        report = service.serve(listener);
        listener.close();
    });

    const std::unique_ptr<core::Transport> link = listener.connect();
    link->send(encode_hello(ShardHello{service.key(), 0}));
    std::string bytes;
    ASSERT_TRUE(link->recv_wait(bytes, 5000));
    ASSERT_EQ(decode_frame(bytes).type, FrameType::kWelcome);

    // Stay quiet longer than the idle budget in *total*, but heartbeat
    // within it each time: ANY valid frame must reset the budget, so a
    // slow-simulating but heartbeating worker keeps the coordinator alive.
    for (int i = 0; i < 6; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        link->send(encode_heartbeat(999));  // in-lease-shaped liveness
    }
    // Still serving: a pull is answered with a lease grant.
    link->send(encode_heartbeat(kNoLease));
    Frame frame;
    for (;;) {
        ASSERT_TRUE(link->recv_wait(bytes, 5000));
        frame = decode_frame(bytes);
        if (frame.type == FrameType::kLease) break;
    }
    EXPECT_FALSE(frame.lease.cells.empty());

    // Now go silent for good: the idle budget finally runs out (the lease
    // deadline cannot fire — no frames arrive, so the op clock is frozen).
    coordinator.join();
    EXPECT_FALSE(report.resolved);
    EXPECT_GE(report.heartbeats, 7u);
}

TEST(CoordinatorService, OpCountedDeadlineExpiresSilentLeaseHolder) {
    const CensusPlan plan = synthetic_plan(4);
    const fs::path dir = scratch_dir("lease_expiry");
    CoordinatorOptions copts;
    copts.lease_chunk = 2;
    copts.lease_deadline_ops = 4;  // a few frames of silence = declared dead
    CoordinatorService service(plan, merged_journal_path(dir), copts);
    core::LoopbackListener listener;
    CoordinatorReport report;
    std::thread coordinator([&] {
        report = service.serve(listener);
        listener.close();
    });

    const std::string hello = encode_hello(ShardHello{service.key(), 0});
    const std::unique_ptr<core::Transport> a = listener.connect();
    a->send(hello);
    std::string bytes;
    ASSERT_TRUE(a->recv_wait(bytes, 5000));
    ASSERT_EQ(decode_frame(bytes).type, FrameType::kWelcome);
    a->send(encode_heartbeat(kNoLease));
    ASSERT_TRUE(a->recv_wait(bytes, 5000));
    const Frame granted = decode_frame(bytes);
    ASSERT_EQ(granted.type, FrameType::kLease);

    // A goes silent while B's chatter advances the op clock past A's
    // deadline: the coordinator declares A permanently dead and closes it.
    const std::unique_ptr<core::Transport> b = listener.connect();
    b->send(hello);
    ASSERT_TRUE(b->recv_wait(bytes, 5000));
    for (int i = 0; i < 8; ++i) b->send(encode_heartbeat(999));
    bool a_dropped = false;
    try {
        while (a->recv_wait(bytes, 5000)) {
        }
    } catch (const core::TransportClosed&) {
        a_dropped = true;
    }
    EXPECT_TRUE(a_dropped);

    // B's next pull is granted the dead worker's exact cells.
    b->send(encode_heartbeat(kNoLease));
    Frame regrant;
    for (;;) {
        ASSERT_TRUE(b->recv_wait(bytes, 5000));
        regrant = decode_frame(bytes);
        if (regrant.type == FrameType::kLease) break;
    }
    EXPECT_EQ(regrant.lease.cells, granted.lease.cells);
    EXPECT_GT(regrant.lease.id, granted.lease.id);

    service.request_stop();
    b->close();
    coordinator.join();
    // A's deadline expiry, plus possibly B's own lease failing when the
    // test hangs up on it above.
    EXPECT_GE(report.leases_expired, 1u);
    EXPECT_GE(report.links_dropped, 1u);
    EXPECT_GE(report.leases_granted, 2u);
}

TEST(RunWorker, ZombieWorkerIsReadmittedAndDeduped) {
    const CensusPlan plan = synthetic_plan(6);
    const fs::path dir = scratch_dir("zombie");
    // The zombie's past life: it journaled cells {1,3,5} locally and died
    // before any of them was acked.  Meanwhile the coordinator merged those
    // same cells from other workers.
    const fs::path zjournal = worker_journal_path(dir, 1);
    const SweepJournalKey key = ParallelCensus(plan, 1).journal_key();
    {
        SweepJournal local(zjournal, key, false);
        SweepJournal merged(merged_journal_path(dir), key, false);
        for (const std::size_t idx : std::vector<std::size_t>{1, 3, 5}) {
            const FaultCensus census = run_cell(plan, cell_config(plan, idx));
            local.record(idx, census);
            merged.record(idx, census);
        }
    }
    CoordinatorOptions copts;
    copts.resume = true;
    CoordinatorService service(plan, merged_journal_path(dir), copts);
    core::LoopbackListener listener;
    CoordinatorReport creport;
    std::thread coordinator([&] {
        creport = service.serve(listener);
        listener.close();
    });

    // The zombie reconnects: every stale cell it streams is absorbed by
    // dedupe, and it is handed a fresh lease over the remaining half of the
    // campaign instead of being turned away.
    const WorkerReport zombie = run_worker(plan, 1, zjournal, listener.connect());
    coordinator.join();

    EXPECT_TRUE(zombie.done_received);
    EXPECT_FALSE(zombie.degraded);
    EXPECT_GE(zombie.leases_held, 1u);
    EXPECT_EQ(zombie.cells_computed, 3u);  // the fresh lease: cells 0, 2, 4
    EXPECT_EQ(zombie.cells_reused, 3u);    // its stale backlog, streamed
    EXPECT_EQ(creport.duplicates, 3u);     // ... and deduped
    EXPECT_EQ(creport.cells_recorded, 3u);
    EXPECT_TRUE(creport.completed);

    // Byte-identity: the merged journal cannot tell any of this happened.
    const fs::path ref = dir / "ref.journal";
    {
        SweepJournal journal(ref, key, false);
        (void)ParallelCensus(plan, 1).run(journal);
    }
    EXPECT_EQ(slurp(merged_journal_path(dir)), slurp(ref));
}

// Steps the simulated network to the tent switch's death just before the
// Nth send — from the worker's own thread, so the (not thread-safe) Network
// is never touched concurrently: the coordinator holds raw loopback ends.
class SwitchKiller final : public core::Transport {
  public:
    SwitchKiller(std::unique_ptr<core::Transport> inner, monitoring::Network& net,
                 std::size_t doomed, int death_send)
        : inner_(std::move(inner)), net_(net), doomed_(doomed), death_send_(death_send) {}
    void send(std::string_view frame) override {
        if (++sends_ == death_send_) {
            while (net_.switch_at(doomed_).operational()) {
                net_.step(core::Duration::hours(1));
            }
        }
        inner_->send(frame);
    }
    bool try_recv(std::string& frame) override { return inner_->try_recv(frame); }
    bool recv_wait(std::string& frame, int timeout_ms) override {
        return inner_->recv_wait(frame, timeout_ms);
    }
    void close() override { inner_->close(); }
    [[nodiscard]] bool closed() const override { return inner_->closed(); }

  private:
    std::unique_ptr<core::Transport> inner_;
    monitoring::Network& net_;
    std::size_t doomed_;
    int death_send_;
    int sends_ = 0;
};

// The paper's observed failure mode, end to end: a loaner switch dies in the
// collection path, the worker behind it goes dark mid-lease, and a healthy
// worker on another tent absorbs the orphaned cells.  The merged journal is
// byte-identical to a local run.
TEST(RunWorker, DeadSwitchOrphansLeaseAndASurvivorAbsorbsIt) {
    const CensusPlan plan = synthetic_plan(6);
    const fs::path dir = scratch_dir("dead_switch");

    monitoring::Network net;
    const std::size_t root = net.add_switch(
        hardware::NetworkSwitch("building", hardware::SwitchConfig{}, core::RngStream(1, "b")));
    hardware::SwitchConfig doomed_cfg;
    doomed_cfg.inherent_defect = true;
    doomed_cfg.defect_mean_hours_to_failure = 100.0;
    const std::size_t tent =
        net.add_switch(hardware::NetworkSwitch("tent", doomed_cfg, core::RngStream(5, "t")));
    net.uplink(tent, root);
    net.attach({100, "coordinator"}, root);
    net.attach({1, "worker-a"}, tent);

    CoordinatorOptions copts;
    copts.lease_chunk = 2;
    CoordinatorService service(plan, merged_journal_path(dir), copts);
    core::LoopbackListener listener;
    CoordinatorReport creport;
    std::thread coordinator([&] {
        creport = service.serve(listener);
        listener.close();
    });

    // Worker A, behind the doomed tent switch: hello, pull, lease, then the
    // switch dies under it mid-lease.  No reconnect path exists.
    WorkerOptions aopts;
    aopts.max_reconnects = 0;
    auto gated = std::make_unique<monitoring::NetworkGatedTransport>(net, 1, 100,
                                                                     listener.connect());
    const WorkerReport a = run_worker(
        plan, 0, worker_journal_path(dir, 0),
        std::make_unique<SwitchKiller>(std::move(gated), net, tent, 5), aopts);
    EXPECT_TRUE(a.degraded);
    EXPECT_FALSE(a.done_received);
    EXPECT_GE(a.leases_held, 1u);

    // Worker B, on a healthy path, finishes the whole campaign — including
    // the cells A's orphaned lease still names.
    const WorkerReport b =
        run_worker(plan, 1, worker_journal_path(dir, 1), listener.connect());
    coordinator.join();

    EXPECT_TRUE(b.done_received);
    EXPECT_TRUE(creport.completed);
    EXPECT_GE(creport.links_dropped, 1u);
    EXPECT_GE(creport.leases_expired, 1u);

    const SweepJournalKey key = ParallelCensus(plan, 1).journal_key();
    const fs::path ref = dir / "ref.journal";
    {
        SweepJournal journal(ref, key, false);
        (void)ParallelCensus(plan, 1).run(journal);
    }
    EXPECT_EQ(slurp(merged_journal_path(dir)), slurp(ref));
}

TEST(RunDistributed, ForeignCampaignHelloIsRejectedAsStale) {
    const CensusPlan coordinator_plan = synthetic_plan(4, 42);
    const CensusPlan worker_plan = synthetic_plan(4, 43);  // different campaign
    const fs::path dir = scratch_dir("stale");

    CoordinatorOptions copts;
    CoordinatorService service(coordinator_plan, merged_journal_path(dir), copts);
    core::LoopbackListener listener;
    std::thread coordinator([&] {
        try {
            (void)service.serve(listener);
        } catch (...) {
        }
        listener.close();
    });

    EXPECT_THROW((void)run_worker(worker_plan, 0, worker_journal_path(dir, 0), listener.connect()),
                 core::StaleJournal);
    service.request_stop();
    coordinator.join();
}

// The headline property: kill the worker at every send point — transiently
// (the operator reboots it) AND permanently (the survivors absorb its lease)
// — and the coordinator at every frame (every phase), resume, and the merged
// campaign is byte-identical to the uninterrupted run; plus the poison-cell
// scenario, where quarantine must engage.
TEST(DistributedTorture, EveryCrashPointResumesByteIdentically) {
    const CensusPlan plan = synthetic_plan(4);
    const fs::path dir = scratch_dir("torture");
    std::ostringstream log;
    DistributedTortureOptions opts;
    opts.workers = 2;
    const DistributedTortureReport report = distributed_torture(plan, dir, opts, log);
    EXPECT_TRUE(report.passed()) << log.str();
    EXPECT_EQ(report.mismatches, 0u) << log.str();
    // Lease chatter makes the exact counts interleaving-dependent; the
    // floors are what a minimal 2-worker 4-cell campaign must produce, and
    // the matrix sizes must follow the counting run exactly.
    EXPECT_GE(report.worker_send_points, 6u) << log.str();
    EXPECT_GE(report.coordinator_frames, 6u) << log.str();
    EXPECT_EQ(report.crash_points,
              4 * report.worker_send_points + 3 * report.coordinator_frames)
        << log.str();
    EXPECT_GT(report.permanent_kills, 0u) << log.str();
    EXPECT_EQ(report.quarantine_checks, 1u) << log.str();
}

}  // namespace
}  // namespace zerodeg::experiment
