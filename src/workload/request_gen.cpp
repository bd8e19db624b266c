#include "workload/request_gen.hpp"

#include <cmath>
#include <limits>

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// The largest instantaneous rate the curve can reach — the thinning
/// envelope.  Flash crowds multiply, so the envelope takes the largest one.
double rate_envelope(const OpenLoopConfig& config) {
    double crowd_max = 1.0;
    for (const FlashCrowd& c : config.flash_crowds) {
        if (c.multiplier > crowd_max) crowd_max = c.multiplier;
    }
    return config.base_rps * (1.0 + config.diurnal_amplitude) * crowd_max;
}

/// `rate` times the multiplier of every flash crowd active at `t`, applied
/// in configuration order.
double with_flash_crowds(const OpenLoopConfig& config, core::TimePoint t, double rate) {
    for (const FlashCrowd& c : config.flash_crowds) {
        if (t >= c.start && t < c.start + c.duration) rate *= c.multiplier;
    }
    return rate;
}

}  // namespace

double diurnal_rate(const OpenLoopConfig& config, int seconds_of_day) {
    const double day_frac = seconds_of_day / 86400.0;
    const double peak_frac = config.peak_hour / 24.0;
    return config.base_rps *
           (1.0 + config.diurnal_amplitude * std::cos(kTwoPi * (day_frac - peak_frac)));
}

double arrival_rate(const OpenLoopConfig& config, core::TimePoint t) {
    return with_flash_crowds(config, t, diurnal_rate(config, t.seconds_of_day()));
}

OpenLoopGenerator::OpenLoopGenerator(OpenLoopConfig config, std::uint64_t master_seed,
                                     core::TimePoint origin)
    : config_(std::move(config)),
      origin_(origin),
      rng_(master_seed, "traffic.arrivals"),
      rate_max_(rate_envelope(config_)),
      diurnal_(86400, std::numeric_limits<double>::quiet_NaN()) {
    if (!(config_.base_rps > 0.0)) {
        throw core::InvalidArgument("OpenLoopGenerator: base_rps must be positive");
    }
    if (config_.diurnal_amplitude < 0.0 || config_.diurnal_amplitude >= 1.0) {
        throw core::InvalidArgument("OpenLoopGenerator: diurnal_amplitude must be in [0, 1)");
    }
}

double OpenLoopGenerator::next_arrival() {
    // Lewis-Shedler thinning: candidate interarrivals at the envelope rate,
    // accepted with probability rate(t)/rate_max.  Exact for any rate curve
    // bounded by the envelope, and fully replayable from the stream.
    for (;;) {
        t_ += rng_.exponential(rate_max_);
        const core::TimePoint at = origin_ + core::Duration::seconds(static_cast<std::int64_t>(t_));
        const int sod = at.seconds_of_day();
        double& diurnal = diurnal_[static_cast<std::size_t>(sod)];
        if (std::isnan(diurnal)) diurnal = diurnal_rate(config_, sod);
        const double accept = with_flash_crowds(config_, at, diurnal) / rate_max_;
        if (rng_.uniform01() < accept) return t_;
    }
}

DemandSampler::DemandSampler(double mean_seconds, std::uint64_t master_seed)
    : mean_(mean_seconds), rng_(master_seed, "traffic.demand") {
    if (!(mean_seconds > 0.0)) {
        throw core::InvalidArgument("DemandSampler: mean_seconds must be positive");
    }
}

double DemandSampler::next() { return rng_.exponential(1.0 / mean_); }

}  // namespace zerodeg::workload
