#include "workload/scheduler.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"

namespace zerodeg::workload {
namespace {

using core::Duration;
using core::Simulator;
using core::TimePoint;

LoadJobConfig small_job() {
    LoadJobConfig cfg;
    cfg.corpus.total_bytes = 64 * 1024;
    cfg.target_blocks = 20;
    return cfg;
}

TEST(Scheduler, TenMinuteCadence) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    bool up = true;
    sched.add_host({1, false, [&up] { return up; }}, sim.now());
    sim.run_until(sim.now() + Duration::hours(10) + Duration::minutes(5));
    // 10 h at 6 runs/h, +1 for the t=0 cycle.
    EXPECT_EQ(sched.stats(1).runs, 61u);
    EXPECT_EQ(sched.total_runs(), 61u);
}

TEST(Scheduler, StartFuzzWithinTwoMinutes) {
    // "each host sleeps for 0 to 119 seconds before commencing"
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    // After 119 s the first cycle must have fired; before 0 s it cannot.
    sim.run_until(sim.now() + Duration::seconds(120));
    EXPECT_EQ(sched.stats(1).runs, 1u);
}

TEST(Scheduler, DownHostSkipsCycles) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    bool up = true;
    sched.add_host({15, false, [&up] { return up; }}, sim.now());
    sim.run_until(sim.now() + Duration::hours(1) + Duration::minutes(5));
    const auto runs_before = sched.stats(15).runs;
    up = false;  // host #15 crashes
    sim.run_until(sim.now() + Duration::hours(1));
    EXPECT_EQ(sched.stats(15).runs, runs_before);
    EXPECT_GT(sched.stats(15).skipped, 0u);
}

TEST(Scheduler, InstallDateDelaysFirstRun) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    const TimePoint install = TimePoint::from_date(2010, 3, 10);  // host #15's date
    sched.add_host({15, false, [] { return true; }}, install);
    sim.run_until(TimePoint::from_date(2010, 3, 9));
    EXPECT_EQ(sched.stats(15).runs, 0u);
    sim.run_until(TimePoint::from_date(2010, 3, 11));
    EXPECT_GT(sched.stats(15).runs, 100u);
}

TEST(Scheduler, RemoveHostStopsScheduling) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    sim.run_until(sim.now() + Duration::hours(1));
    const auto before = sched.stats(1).runs;
    sched.remove_host(1);
    sim.run_until(sim.now() + Duration::hours(2));
    EXPECT_EQ(sched.stats(1).runs, before);
}

TEST(Scheduler, DuplicateAndUnknownHostsThrow) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    EXPECT_THROW(sched.add_host({1, false, [] { return true; }}, sim.now()),
                 core::InvalidArgument);
    EXPECT_THROW(sched.remove_host(9), core::InvalidArgument);
    EXPECT_THROW((void)sched.stats(9), core::InvalidArgument);
    EXPECT_THROW(sched.add_host({2, false, nullptr}, sim.now()), core::InvalidArgument);
}

TEST(Scheduler, WrongHashIncidentsCarryForensics) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    faults::MemoryFaultParams noisy;
    noisy.flip_probability_per_page_op = 1.0 / 2000.0;  // frequent flips
    LoadScheduler sched(sim, small_job(), noisy, 1);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    sim.run_until(sim.now() + Duration::hours(12));
    ASSERT_GT(sched.total_wrong_hashes(), 0u);
    const auto& incidents = sched.incidents();
    ASSERT_FALSE(incidents.empty());
    EXPECT_EQ(incidents[0].host_id, 1);
    EXPECT_GT(incidents[0].total_blocks, 0u);
    EXPECT_GE(incidents[0].corrupt_blocks, 1u);
    EXPECT_EQ(sched.total_wrong_hashes(), incidents.size());
}

TEST(Scheduler, PageOpsAccumulate) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    sim.run_until(sim.now() + Duration::hours(1) + Duration::minutes(5));
    EXPECT_EQ(sched.total_page_ops(),
              sched.stats(1).runs * sched.job().page_ops_per_run());
}

TEST(Scheduler, BuildsTheJobAtTheFirstHost) {
    // A scheduler no host joins (a traffic season's) never builds the
    // archive job; the first add_host does, from the scheduler's seed.
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    EXPECT_THROW((void)sched.job(), core::InvalidArgument);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    EXPECT_EQ(sched.job().reference_digest(), LoadJob(small_job(), 1).reference_digest());
}

TEST(Scheduler, TwoHostsIndependentStreams) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    sched.add_host({2, true, [] { return true; }}, sim.now());
    sim.run_until(sim.now() + Duration::hours(5));
    EXPECT_EQ(sched.stats(1).runs, sched.stats(2).runs);
}

}  // namespace
}  // namespace zerodeg::workload
