// Processor-sharing queue: the service model of the traffic workload.
//
// A PS server of capacity `service_rate` (work units per second) splits its
// capacity equally over all resident jobs; a job with demand d therefore
// leaves after integral(rate / n(t)) dt == d.  The simulation is *exact*,
// not tick-quantized: advance_to() walks from completion to completion in
// continuous time, so sojourn times match the M/M/1-PS closed forms
// (E[T] = 1/(mu - lambda)) to sampling error alone — the property the
// analytic-oracle suite (tests/test_traffic_analytic.cpp) pins to 2%.
//
// Everything is deterministic: jobs are held in admission order, ties
// complete in admission order, and no randomness lives here (the generators
// own the RNG streams).
//
// The queue caches its least remaining work, so next_completion_time() is
// O(1) and a departure costs one pass instead of two.  The cache is exact,
// not an estimate: every pass that subtracts shared progress from the
// resident jobs also takes the minimum of the values it just stored, so the
// cached double is one of the stored doubles, bit for bit.  (Subtracting the
// same amount from every job cannot reorder them — IEEE rounding is
// monotone — but the cache does not even rely on that.)  Only cancel() of
// the job holding the minimum rescans.  A virtual-time design (finish tags
// in a heap, one subtraction per event instead of n) would be cheaper still,
// but it sums the same progress in a different order, which moves departure
// instants by an ulp and with them every golden latency the seasons pin.
#pragma once

#include <cstdint>
#include <vector>

namespace zerodeg::workload {

class PsQueue {
public:
    /// `service_rate` is the server capacity in work units per second; a
    /// job's demand is expressed in the same work units.
    explicit PsQueue(double service_rate);

    struct Completion {
        std::uint64_t id = 0;
        double time = 0.0;  ///< absolute queue time of the departure
    };

    /// Admit a job at absolute time `now` (must be >= clock(); callers
    /// advance_to(now) first so pending departures are not skipped).
    void admit(std::uint64_t id, double demand, double now);

    /// Advance the queue clock to absolute time `t`, appending every
    /// departure in (clock(), t] to `out` in completion order.
    void advance_to(double t, std::vector<Completion>& out);

    /// Remove a resident job (clone cancellation / host crash).  Returns
    /// false if the id is not resident.
    bool cancel(std::uint64_t id);

    /// Drop every resident job (host crash), appending their ids to `out`
    /// in admission order.
    void drop_all(std::vector<std::uint64_t>& out);

    [[nodiscard]] std::size_t in_service() const { return jobs_.size(); }
    [[nodiscard]] double clock() const { return clock_; }
    [[nodiscard]] double service_rate() const { return rate_; }

    /// Absolute time of the next departure if nothing else arrives;
    /// +infinity when idle.
    [[nodiscard]] double next_completion_time() const;

    /// Busy time (clock seconds with >= 1 resident job) accumulated since
    /// the last call; the per-tick utilization integrand.
    [[nodiscard]] double take_busy_seconds();

private:
    struct Job {
        std::uint64_t id = 0;
        double remaining = 0.0;  ///< work units left
    };

    double rate_;
    double clock_ = 0.0;
    double busy_seconds_ = 0.0;
    std::vector<Job> jobs_;  ///< admission order
    double min_rem_ = 0.0;   ///< least `remaining` in jobs_ (meaningless when empty)

    /// Subtract `work` from every resident job; returns the new least
    /// remaining work.
    double serve(double work);
};

}  // namespace zerodeg::workload
