#include "workload/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "core/error.hpp"
#include "core/stats.hpp"

namespace zerodeg::workload {

namespace {

std::string fmt6(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return buf;
}

}  // namespace

SloTracker::SloTracker(double deadline_seconds) : deadline_(deadline_seconds) {
    if (!(deadline_seconds > 0.0)) {
        throw core::InvalidArgument("SloTracker: deadline_seconds must be positive");
    }
}

void SloTracker::record(double sojourn_seconds) {
    ++completed_;
    sojourn_sum_ += sojourn_seconds;
    sojourns_.push_back(sojourn_seconds);
    tick_sojourns_.push_back(sojourn_seconds);
    if (sojourn_seconds > deadline_) {
        ++deadline_misses_;
        ++tick_misses_;
    }
}

void SloTracker::record_dropped() {
    ++dropped_;
    ++tick_dropped_;
    ++deadline_misses_;
    ++tick_misses_;
}

void SloTracker::close_tick(core::TimePoint tick_end, double mean_utilization) {
    SloTickRow row;
    row.time = tick_end;
    row.completed = tick_sojourns_.size();
    row.dropped = tick_dropped_;
    row.deadline_misses = tick_misses_;
    row.mean_utilization = mean_utilization;
    if (!tick_sojourns_.empty()) {
        // One sort serves all three percentiles; the buffer is cleared below.
        std::sort(tick_sojourns_.begin(), tick_sojourns_.end());
        row.p50_seconds = core::percentile_sorted(tick_sojourns_, 50.0);
        row.p95_seconds = core::percentile_sorted(tick_sojourns_, 95.0);
        row.p99_seconds = core::percentile_sorted(tick_sojourns_, 99.0);
    }
    rows_.push_back(row);
    tick_sojourns_.clear();
    tick_dropped_ = 0;
    tick_misses_ = 0;
}

double SloTracker::deadline_miss_fraction() const {
    const std::uint64_t issued = completed_ + dropped_;
    if (issued == 0) return 0.0;
    return static_cast<double>(deadline_misses_) / static_cast<double>(issued);
}

double SloTracker::mean_sojourn_seconds() const {
    if (completed_ == 0) return 0.0;
    return sojourn_sum_ / static_cast<double>(completed_);
}

double SloTracker::sojourn_percentile(double p) const {
    if (sojourns_.empty()) return 0.0;
    return core::percentile_in_place(sojourns_, p);
}

std::string render_slo_csv(const SloTracker& tracker) {
    std::ostringstream out;
    out << "time,completed,dropped,deadline_misses,p50_s,p95_s,p99_s,mean_utilization\n";
    for (const SloTickRow& row : tracker.tick_rows()) {
        out << row.time.to_string() << ',' << row.completed << ',' << row.dropped << ','
            << row.deadline_misses << ',' << fmt6(row.p50_seconds) << ','
            << fmt6(row.p95_seconds) << ',' << fmt6(row.p99_seconds) << ','
            << fmt6(row.mean_utilization) << '\n';
    }
    return out.str();
}

}  // namespace zerodeg::workload
