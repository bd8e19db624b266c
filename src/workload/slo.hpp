// Latency / SLO accounting for the traffic workload.
//
// Every completed request's sojourn time is recorded (the percentile basis),
// deadline misses and drops are counted, and a per-tick aggregate row is
// appended so a season exports a compact latency CSV instead of millions of
// raw samples.  All aggregation is order-stable: rows are appended in tick
// order and percentiles use core::stats' deterministic interpolation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sim_time.hpp"

namespace zerodeg::workload {

/// One tick's latency aggregate (the unit of the exported CSV).
struct SloTickRow {
    core::TimePoint time;          ///< tick end
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t deadline_misses = 0;
    double p50_seconds = 0.0;      ///< over this tick's completions (0 if none)
    double p95_seconds = 0.0;
    double p99_seconds = 0.0;
    double mean_utilization = 0.0; ///< fleet-mean busy fraction this tick
};

class SloTracker {
public:
    explicit SloTracker(double deadline_seconds);

    /// A completed request's sojourn (response) time, in seconds.
    void record(double sojourn_seconds);
    /// A request that never completed (host down, nowhere to dispatch).
    /// Drops are charged as deadline misses too — the user saw no response.
    void record_dropped();

    /// Close the current tick: fold the since-last-call completions into one
    /// CSV row stamped `tick_end`.
    void close_tick(core::TimePoint tick_end, double mean_utilization);

    // --- season-wide aggregates -------------------------------------------
    [[nodiscard]] std::uint64_t completed() const { return completed_; }
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
    [[nodiscard]] std::uint64_t deadline_misses() const { return deadline_misses_; }
    [[nodiscard]] double deadline_miss_fraction() const;
    [[nodiscard]] double mean_sojourn_seconds() const;
    /// Percentile over every completed request's sojourn, p in [0, 100].
    /// Selects in place within the season's sojourns (a default traffic
    /// season holds ~788 k) instead of copying them; that reorders them,
    /// which no reader sees, but makes concurrent calls on one tracker a
    /// data race.
    [[nodiscard]] double sojourn_percentile(double p) const;
    [[nodiscard]] double deadline_seconds() const { return deadline_; }

    [[nodiscard]] const std::vector<SloTickRow>& tick_rows() const { return rows_; }

private:
    double deadline_;
    std::uint64_t completed_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t deadline_misses_ = 0;
    double sojourn_sum_ = 0.0;
    /// Every completion, season-wide, in no particular order:
    /// sojourn_percentile reorders it.
    mutable std::vector<double> sojourns_;
    std::vector<double> tick_sojourns_; ///< completions since the last close_tick
    std::uint64_t tick_dropped_ = 0;
    std::uint64_t tick_misses_ = 0;
    std::vector<SloTickRow> rows_;
};

/// Render the per-tick aggregate rows as CSV (the `traffic_slo.csv` export).
[[nodiscard]] std::string render_slo_csv(const SloTracker& tracker);

}  // namespace zerodeg::workload
