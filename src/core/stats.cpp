#include "core/stats.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace zerodeg::core {

void RunningStats::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
    if (n_ < 2) return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const auto n1 = static_cast<double>(n_);
    const auto n2 = static_cast<double>(other.n_);
    const double n = n1 + n2;
    m2_ += other.m2_ + delta * delta * n1 * n2 / n;
    mean_ = (n1 * mean_ + n2 * other.mean_) / n;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

namespace {

/// Where percentile `p` of `n` samples falls: between order statistics
/// `lo` and `lo + 1`, `frac` of the way up.
struct Rank {
    std::size_t lo = 0;
    double frac = 0.0;
};

Rank percentile_rank(std::size_t n, double p) {
    if (n == 0) throw InvalidArgument("percentile: empty data");
    if (p < 0.0 || p > 100.0) throw InvalidArgument("percentile: p out of [0,100]");
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    return {lo, rank - static_cast<double>(lo)};
}

double interpolate(double lo, double hi, double frac) { return lo + frac * (hi - lo); }

}  // namespace

double percentile(std::vector<double> data, double p) { return percentile_in_place(data, p); }

double percentile_in_place(std::span<double> data, double p) {
    const Rank r = percentile_rank(data.size(), p);
    const auto lo = data.begin() + static_cast<std::ptrdiff_t>(r.lo);
    std::nth_element(data.begin(), lo, data.end());
    if (r.lo + 1 >= data.size()) return *lo;
    // Everything after the lo-th order statistic is >= it, so the
    // (lo+1)-th is the least of that upper part.
    return interpolate(*lo, *std::min_element(lo + 1, data.end()), r.frac);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
    const Rank r = percentile_rank(sorted.size(), p);
    if (r.lo + 1 >= sorted.size()) return sorted.back();
    return interpolate(sorted[r.lo], sorted[r.lo + 1], r.frac);
}

double pearson_correlation(const std::vector<double>& x, const std::vector<double>& y) {
    if (x.size() != y.size()) throw InvalidArgument("pearson_correlation: size mismatch");
    if (x.size() < 2) throw InvalidArgument("pearson_correlation: need at least 2 points");
    RunningStats sx, sy;
    for (double v : x) sx.add(v);
    for (double v : y) sy.add(v);
    double cov = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        cov += (x[i] - sx.mean()) * (y[i] - sy.mean());
    }
    cov /= static_cast<double>(x.size() - 1);
    const double denom = sx.stddev() * sy.stddev();
    if (denom == 0.0) return 0.0;
    return cov / denom;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi), counts_(bins) {
    if (bins == 0) throw InvalidArgument("Histogram: need at least one bin");
    if (!(lo < hi)) throw InvalidArgument("Histogram: lo must be < hi");
}

void Histogram::add(double x) {
    const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
    auto idx = static_cast<std::int64_t>(std::floor((x - lo_) / w));
    idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
    ++total_;
}

double Histogram::bin_low(std::size_t i) const {
    const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + w * static_cast<double>(i);
}

}  // namespace zerodeg::core
