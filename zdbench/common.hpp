// Shared vocabulary of the zdbench benchmark: the clock, sample statistics,
// the metric list a run prints, and the options every workload receives.
//
// Every wall-clock read goes through core::bench_clock, the one sanctioned
// timing seam (lint rule ZD013); nothing measured here is ever fed back into
// a simulation.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/bench_clock.hpp"

namespace zdbench {

using Clock = zerodeg::core::bench_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return Clock::seconds_between(start, Clock::now());
}

/// Quantile `q` in [0, 1] of `samples` (core::percentile); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
    return quantile(std::move(samples), 0.5);
}

/// Spin (never sleep) for `us` microseconds: the attribution self-test's
/// injected busy delay.
void busy_wait_us(double us);

/// 16 lowercase hex digits, as census digests are printed.
[[nodiscard]] std::string hex64(std::uint64_t v);

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one benchmark run reports: the output-check verdict, the work
/// attempted and failed, and the metrics in print order.
struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> problems;  ///< output-check failures

    void fail(std::string why) {
        correct = false;
        problems.push_back(std::move(why));
    }
    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

enum class Workload { kArchiveCensus, kTrafficCensus, kCampaign };

struct RunOptions {
    Workload workload = Workload::kArchiveCensus;
    std::uint64_t seed = 0;       ///< the --seed argument
    double seconds = 10.0;        ///< measuring budget
    double load_delay_us = 0.0;   ///< self-test: busy delay per LoadJob::run
    std::filesystem::path out_dir;  ///< spans JSON and campaign journals
};

/// First master seed of a run's cells; the paper's golden seed is never one
/// of them, so the golden check stays a separate, fixed input.
[[nodiscard]] inline std::uint64_t base_seed(std::uint64_t seed) {
    return 20100219ull + 1000ull * (seed + 1);
}

}  // namespace zdbench
