// Closed-form queueing validation of the traffic engine.  A single-host
// TrafficEngine with exponential demands and Poisson arrivals (diurnal
// amplitude zero) *is* an M/M/1-PS queue, so its long-run mean sojourn time
// must converge to 1/(mu - lambda) and its utilization to rho = lambda/mu —
// textbook results the simulator has no way to know except by getting the
// dynamics right.  Closed-loop throughput is checked against the asymptotic
// bound min(N/(Z+R), mu), and cloning against its low-load advantage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "core/sim_time.hpp"
#include "core/stats.hpp"
#include "workload/ps_queue.hpp"
#include "workload/request_gen.hpp"
#include "workload/slo.hpp"
#include "workload/traffic.hpp"

namespace zerodeg::workload {
namespace {

using core::Duration;
using core::TimePoint;

const TimePoint kOrigin = TimePoint::from_date(2010, 2, 19);

/// Drive a TrafficEngine for `days` simulated days in ten-minute ticks —
/// the same cadence the experiment runner uses.
void drive(TrafficEngine& engine, int days) {
    const Duration tick = Duration::minutes(10);
    TimePoint t = kOrigin;
    const TimePoint end = kOrigin + Duration::days(days);
    while (t < end) {
        t = t + tick;
        engine.advance(t);
    }
}

/// One always-up host, flat Poisson arrivals: an exact M/M/1-PS system.
TrafficEngine make_mm1(double lambda, double mu, std::uint64_t seed) {
    TrafficConfig cfg;
    cfg.mode = TrafficConfig::Mode::kOpen;
    cfg.open.base_rps = lambda;
    cfg.open.diurnal_amplitude = 0.0;
    cfg.open.flash_crowds.clear();
    cfg.mean_demand_seconds = 1.0 / mu;
    cfg.service_rate = 1.0;
    cfg.deadline_seconds = 1e9;  // latency accounting only, no miss pressure
    TrafficEngine engine(cfg, seed, kOrigin);
    engine.add_host({"host1", /*in_tent=*/false, /*operational=*/nullptr,
                     /*set_load=*/nullptr});
    return engine;
}

class Mm1PsClosedForm : public ::testing::TestWithParam<double> {};

TEST_P(Mm1PsClosedForm, MeanSojournAndUtilizationMatchTheory) {
    // mu = 0.1/s keeps demands long enough that ten-minute ticks see real
    // queueing.  The sojourn variance explodes as rho -> 1 (busy periods
    // lengthen), so the heavy-load point gets a 4x longer horizon to land
    // the sample mean inside 2%.  (PS sojourn is exponential-demand
    // *insensitive*, but we use exponential demands anyway — that's the
    // engine default.)
    const double rho = GetParam();
    const double mu = 0.1;
    const double lambda = rho * mu;
    TrafficEngine engine = make_mm1(lambda, mu, /*seed=*/987654321);
    drive(engine, rho < 0.8 ? 40 : 160);

    const double expected_sojourn = 1.0 / (mu - lambda);
    const double measured_sojourn = engine.slo().mean_sojourn_seconds();
    EXPECT_NEAR(measured_sojourn, expected_sojourn, 0.02 * expected_sojourn)
        << "rho = " << rho;

    const double measured_rho = engine.mean_utilization();
    EXPECT_NEAR(measured_rho, rho, 0.02 * rho) << "rho = " << rho;

    EXPECT_EQ(engine.slo().dropped(), 0u);
    EXPECT_EQ(engine.slo().deadline_misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Rho, Mm1PsClosedForm, ::testing::Values(0.3, 0.6, 0.9),
                         [](const auto& param_info) {
                             return "rho" +
                                    std::to_string(static_cast<int>(param_info.param * 10));
                         });

TEST(ClosedLoop, ThroughputObeysAsymptoticBound) {
    // Interactive response-time law: X = N/(Z+R) when the server is not the
    // bottleneck, saturating at mu.  With N = 4, Z = 100 s, S = 10 s the
    // population bound N/(Z+S) = 0.036/s rules (mu = 0.1/s), and R stays
    // close to S, so X ~= N/(Z+S) within the queueing slack.
    TrafficConfig cfg;
    cfg.mode = TrafficConfig::Mode::kClosed;
    cfg.closed.users = 4;
    cfg.closed.think_seconds = 100.0;
    cfg.mean_demand_seconds = 10.0;
    cfg.service_rate = 1.0;
    cfg.deadline_seconds = 1e9;
    TrafficEngine engine(cfg, /*master_seed=*/13579, kOrigin);
    engine.add_host({"host1", false, nullptr, nullptr});
    drive(engine, 40);

    const double horizon = 40.0 * 86400.0;
    const double throughput = static_cast<double>(engine.slo().completed()) / horizon;
    const double mu = 1.0 / 10.0;
    const double mean_sojourn = engine.slo().mean_sojourn_seconds();
    const double bound = std::min(4.0 / (100.0 + mean_sojourn), mu);
    // The response-time law X = N/(Z+R) is exact in steady state; 5% covers
    // finite-horizon noise on a ~138k-completion run.
    EXPECT_NEAR(throughput, bound, 0.05 * bound);
    // Sanity: nowhere near server saturation.
    EXPECT_LT(throughput, 0.6 * mu);
}

TEST(ClosedLoop, SaturatesAtServiceCapacity) {
    // N = 60 eager users (Z = 1 s) against mu = 0.1/s: the server is the
    // bottleneck and throughput pins at mu, not at N/(Z+R).
    TrafficConfig cfg;
    cfg.mode = TrafficConfig::Mode::kClosed;
    cfg.closed.users = 60;
    cfg.closed.think_seconds = 1.0;
    cfg.mean_demand_seconds = 10.0;
    cfg.service_rate = 1.0;
    cfg.deadline_seconds = 1e9;
    TrafficEngine engine(cfg, /*master_seed=*/24680, kOrigin);
    engine.add_host({"host1", false, nullptr, nullptr});
    drive(engine, 20);

    const double horizon = 20.0 * 86400.0;
    const double throughput = static_cast<double>(engine.slo().completed()) / horizon;
    EXPECT_NEAR(throughput, 0.1, 0.02 * 0.1);
    EXPECT_GT(engine.mean_utilization(), 0.98);
}

TEST(Cloning, BeatsSingleDispatchAtLowLoad) {
    // At low load a clone pair completes at min(two iid sojourns): strictly
    // faster in expectation than one draw.  Same seed with and without the
    // clone flag; tent + basement host so both split sides are present.
    const auto run_one = [](bool clone) {
        TrafficConfig cfg;
        cfg.mode = TrafficConfig::Mode::kOpen;
        cfg.open.base_rps = 0.002;  // rho ~= 0.02 per host: near-idle
        cfg.open.diurnal_amplitude = 0.0;
        cfg.open.flash_crowds.clear();
        cfg.mean_demand_seconds = 10.0;
        cfg.service_rate = 1.0;
        cfg.deadline_seconds = 1e9;
        cfg.clone_across_split = clone;
        TrafficEngine engine(cfg, /*master_seed=*/11223344, kOrigin);
        engine.add_host({"tent1", /*in_tent=*/true, nullptr, nullptr});
        engine.add_host({"cellar1", /*in_tent=*/false, nullptr, nullptr});
        drive(engine, 40);
        return engine.slo().mean_sojourn_seconds();
    };

    const double cloned = run_one(true);
    const double single = run_one(false);
    // E[min(X,Y)] = 5 s vs E[X] = 10 s for near-idle exponential service;
    // require a decisive (>25%) improvement rather than the full 50% to
    // absorb sampling noise and the rare in-flight overlap.
    EXPECT_LT(cloned, 0.75 * single) << "cloned " << cloned << " vs single " << single;
}

TEST(Cloning, CancelsTheSlowerSibling) {
    TrafficConfig cfg;
    cfg.open.base_rps = 0.01;
    cfg.open.diurnal_amplitude = 0.0;
    cfg.open.flash_crowds.clear();
    cfg.mean_demand_seconds = 5.0;
    cfg.clone_across_split = true;
    TrafficEngine engine(cfg, /*master_seed=*/5, kOrigin);
    engine.add_host({"tent1", true, nullptr, nullptr});
    engine.add_host({"cellar1", false, nullptr, nullptr});
    drive(engine, 10);

    EXPECT_GT(engine.slo().completed(), 0u);
    // Every completed request had exactly one sibling cancelled, and every
    // dispatched request placed a clone on each side of the split.
    EXPECT_EQ(engine.clones_cancelled(), engine.slo().completed());
    EXPECT_EQ(engine.clones_issued(), 2 * engine.requests_issued());
    EXPECT_EQ(engine.in_flight(), engine.requests_issued() - engine.slo().completed());
}

TEST(PsQueue, SharesCapacityExactly) {
    // Two unit-demand jobs admitted together at rate 1: both finish at t = 2
    // (each sees rate 1/2).  A third admitted at t = 2 runs alone.
    PsQueue q(/*service_rate=*/1.0);
    q.admit(1, 1.0, 0.0);
    q.admit(2, 1.0, 0.0);
    std::vector<PsQueue::Completion> done;
    q.advance_to(3.0, done);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_DOUBLE_EQ(done[0].time, 2.0);
    EXPECT_DOUBLE_EQ(done[1].time, 2.0);
    EXPECT_EQ(done[0].id, 1u);  // admission order breaks the tie
    EXPECT_EQ(done[1].id, 2u);

    done.clear();
    q.admit(3, 0.5, 3.0);
    q.advance_to(4.0, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_DOUBLE_EQ(done[0].time, 3.5);
}

/// The straightforward processor-sharing queue: every query rescans the
/// resident jobs and every departure rebuilds the job list.  PsQueue caches
/// its minimum and compacts in place; it must agree with this bit for bit.
class ReferencePsQueue {
public:
    explicit ReferencePsQueue(double rate) : rate_(rate) {}

    void admit(std::uint64_t id, double demand, double now) {
        if (!jobs_.empty()) {
            const double dt = now - clock_;
            const double work = dt * rate_ / static_cast<double>(jobs_.size());
            for (Job& j : jobs_) j.remaining -= work;
            busy_seconds_ += dt;
        }
        clock_ = now;
        jobs_.push_back({id, demand});
    }

    void advance_to(double t, std::vector<PsQueue::Completion>& out) {
        while (!jobs_.empty()) {
            const double n = static_cast<double>(jobs_.size());
            const double min_rem = least_remaining();
            const double dt_to_departure = min_rem * n / rate_;
            if (clock_ + dt_to_departure > t) {
                const double dt = t - clock_;
                const double work = dt * rate_ / n;
                for (Job& j : jobs_) j.remaining -= work;
                busy_seconds_ += dt;
                clock_ = t;
                return;
            }
            busy_seconds_ += dt_to_departure;
            clock_ += dt_to_departure;
            for (Job& j : jobs_) j.remaining -= min_rem;
            std::vector<Job> still;
            for (const Job& j : jobs_) {
                if (j.remaining <= 1e-12) {
                    out.push_back({j.id, clock_});
                } else {
                    still.push_back(j);
                }
            }
            jobs_ = std::move(still);
        }
        clock_ = t;
    }

    bool cancel(std::uint64_t id) {
        for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
            if (it->id == id) {
                jobs_.erase(it);
                return true;
            }
        }
        return false;
    }

    void drop_all(std::vector<std::uint64_t>& out) {
        for (const Job& j : jobs_) out.push_back(j.id);
        jobs_.clear();
    }

    [[nodiscard]] double next_completion_time() const {
        if (jobs_.empty()) return std::numeric_limits<double>::infinity();
        return clock_ + least_remaining() * static_cast<double>(jobs_.size()) / rate_;
    }

    [[nodiscard]] double take_busy_seconds() {
        const double b = busy_seconds_;
        busy_seconds_ = 0.0;
        return b;
    }

    [[nodiscard]] double clock() const { return clock_; }
    [[nodiscard]] std::size_t in_service() const { return jobs_.size(); }
    /// Resident ids in admission order, and the one closest to departing.
    [[nodiscard]] std::vector<std::uint64_t> ids() const {
        std::vector<std::uint64_t> out;
        for (const Job& j : jobs_) out.push_back(j.id);
        return out;
    }
    [[nodiscard]] std::uint64_t least_loaded_id() const {
        const double least = least_remaining();
        for (const Job& j : jobs_) {
            if (j.remaining == least) return j.id;
        }
        return 0;
    }

private:
    struct Job {
        std::uint64_t id = 0;
        double remaining = 0.0;
    };

    [[nodiscard]] double least_remaining() const {
        double min_rem = jobs_.front().remaining;
        for (const Job& j : jobs_) min_rem = std::min(min_rem, j.remaining);
        return min_rem;
    }

    double rate_;
    double clock_ = 0.0;
    double busy_seconds_ = 0.0;
    std::vector<Job> jobs_;
};

TEST(PsQueue, MatchesTheRescanningReferenceExactly) {
    // Seeded random admit / advance / cancel / drop sequences with exact
    // ties (equal demands, same-instant admissions, zero-length advances)
    // driven through both queues; every observable must be the same double.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        core::RngStream rng(seed, "test.ps_queue");
        const double rate = seed % 3 == 0 ? 0.75 : 1.0;
        PsQueue fast(rate);
        ReferencePsQueue ref(rate);
        std::uint64_t next_id = 1;
        for (int step = 0; step < 1500; ++step) {
            const double dice = rng.uniform01();
            std::vector<PsQueue::Completion> got;
            std::vector<PsQueue::Completion> want;
            // Same instant a fifth of the time, else a short hop.
            const double t = ref.clock() + (rng.chance(0.2) ? 0.0 : rng.exponential(0.5));
            if (dice < 0.45) {
                // Equal demands half the time so departures tie exactly.
                const double demand = rng.chance(0.5) ? 1.0 : rng.exponential(1.0);
                fast.advance_to(t, got);
                ref.advance_to(t, want);
                fast.admit(next_id, demand, t);
                ref.admit(next_id, demand, t);
                ++next_id;
            } else if (dice < 0.75) {
                fast.advance_to(t, got);
                ref.advance_to(t, want);
            } else if (dice < 0.80) {
                fast.advance_to(fast.clock(), got);
                ref.advance_to(ref.clock(), want);
            } else if (dice < 0.97) {
                // Cancel the job closest to departing, a random one, or one
                // that is not resident at all.
                const std::vector<std::uint64_t> ids = ref.ids();
                std::uint64_t victim = next_id + 7;
                if (!ids.empty() && rng.chance(0.5)) {
                    victim = ref.least_loaded_id();
                } else if (!ids.empty() && rng.chance(0.8)) {
                    victim = ids[static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
                }
                EXPECT_EQ(fast.cancel(victim), ref.cancel(victim));
            } else {
                std::vector<std::uint64_t> dropped_fast;
                std::vector<std::uint64_t> dropped_ref;
                fast.drop_all(dropped_fast);
                ref.drop_all(dropped_ref);
                EXPECT_EQ(dropped_fast, dropped_ref);
            }
            ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " step " << step;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].id, want[i].id);
                EXPECT_EQ(got[i].time, want[i].time);
            }
            ASSERT_EQ(fast.in_service(), ref.in_service()) << "seed " << seed;
            ASSERT_EQ(fast.clock(), ref.clock()) << "seed " << seed << " step " << step;
            ASSERT_EQ(fast.next_completion_time(), ref.next_completion_time())
                << "seed " << seed << " step " << step;
            if (rng.chance(0.1)) {
                ASSERT_EQ(fast.take_busy_seconds(), ref.take_busy_seconds()) << "seed " << seed;
            }
        }
        EXPECT_EQ(fast.take_busy_seconds(), ref.take_busy_seconds());
    }
}

TEST(OpenLoopGenerator, EqualsThinningAgainstArrivalRate) {
    // The per-second diurnal table is a cache, not an approximation: the
    // generator must emit exactly the arrivals of textbook Lewis-Shedler
    // thinning that calls arrival_rate() for every candidate.  The origin
    // is mid-afternoon and two overlapping flash crowds straddle midnight,
    // so the table wraps and multipliers stack in configuration order.
    OpenLoopConfig cfg;
    cfg.base_rps = 2.0;
    cfg.diurnal_amplitude = 0.4;
    cfg.peak_hour = 20.0;
    cfg.flash_crowds = {
        {TimePoint::from_civil({2010, 2, 19, 22, 30, 0}), Duration::hours(4), 3.0},
        {TimePoint::from_civil({2010, 2, 20, 1, 0, 0}), Duration::hours(2), 1.7},
    };
    const TimePoint origin = TimePoint::from_civil({2010, 2, 19, 13, 37, 11});
    const std::uint64_t seed = 424242;
    OpenLoopGenerator gen(cfg, seed, origin);

    core::RngStream rng(seed, "traffic.arrivals");
    const double rate_max = cfg.base_rps * (1.0 + cfg.diurnal_amplitude) * 3.0;
    double t = 0.0;
    for (int i = 0; i < 200000; ++i) {
        for (;;) {
            t += rng.exponential(rate_max);
            const TimePoint at = origin + Duration::seconds(static_cast<std::int64_t>(t));
            if (rng.uniform01() < arrival_rate(cfg, at) / rate_max) break;
        }
        ASSERT_EQ(gen.next_arrival(), t) << "arrival " << i;
    }
    // The window really crossed both crowds and midnight.
    EXPECT_GT(t, static_cast<double>(
                     (TimePoint::from_civil({2010, 2, 20, 3, 0, 0}) - origin).count()));
}

TEST(ArrivalRate, DiurnalAndFlashCrowdCompose) {
    OpenLoopConfig cfg;
    cfg.base_rps = 1.0;
    cfg.diurnal_amplitude = 0.5;
    cfg.peak_hour = 12.0;
    const TimePoint noon = TimePoint::from_civil({2010, 3, 1, 12, 0, 0});
    const TimePoint midnight = TimePoint::from_date(2010, 3, 1);
    EXPECT_NEAR(arrival_rate(cfg, noon), 1.5, 1e-9);
    EXPECT_NEAR(arrival_rate(cfg, midnight), 0.5, 1e-9);

    cfg.flash_crowds = {{noon, core::Duration::hours(1), 4.0}};
    EXPECT_NEAR(arrival_rate(cfg, noon), 6.0, 1e-9);          // inside: x4
    EXPECT_NEAR(arrival_rate(cfg, midnight), 0.5, 1e-9);      // outside
    const TimePoint after = noon + core::Duration::hours(1);  // half-open end
    EXPECT_LT(arrival_rate(cfg, after), 2.0);
}

// The season p99 selects in place within the tracker's sojourns.  It must
// give the doubles core::percentile gives on a copy of the same sample, and
// keep giving them after earlier calls have reordered the sample.
TEST(SloTracker, SeasonPercentileInPlaceEqualsCorePercentileBitForBit) {
    SloTracker slo(2.0);
    EXPECT_EQ(slo.sojourn_percentile(99.0), 0.0);  // no completions yet
    core::RngStream rng(2010, "test.slo-percentile");
    std::vector<double> recorded;
    for (int i = 0; i < 20'000; ++i) {
        // Coarse values so ties are common, with a heavy tail.
        double v = std::floor(rng.uniform(0.0, 40.0)) / 8.0;
        if (i % 50 == 49) v *= 1e3;
        slo.record(v);
        recorded.push_back(v);
        if (i % 997 == 0) slo.record_dropped();
        if (i % 5000 == 4999) slo.close_tick(kOrigin + Duration::minutes(i / 5000), 0.5);
    }
    std::vector<double> ps = {99.0, 0.0, 50.0, 95.0, 100.0, 99.0, 99.9};
    for (int k = 0; k < 20; ++k) ps.push_back(rng.uniform(0.0, 100.0));
    for (const double p : ps) {
        EXPECT_EQ(slo.sojourn_percentile(p), core::percentile(recorded, p)) << p;
    }
    EXPECT_EQ(slo.completed(), recorded.size());
}

}  // namespace
}  // namespace zerodeg::workload
