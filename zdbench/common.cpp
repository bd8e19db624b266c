#include "common.hpp"

#include <chrono>
#include <cstdio>

#include "core/stats.hpp"

namespace zdbench {

double quantile(std::vector<double> samples, double q) {
    return samples.empty() ? 0.0 : zerodeg::core::percentile(std::move(samples), q * 100.0);
}

void busy_wait_us(double us) {
    if (us <= 0.0) return;
    const Clock::time_point until =
        Clock::now() + std::chrono::nanoseconds(static_cast<std::int64_t>(us * 1000.0));
    while (Clock::now() < until) {
    }
}

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

}  // namespace zdbench
