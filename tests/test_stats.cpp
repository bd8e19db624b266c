#include "core/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace zerodeg::core {
namespace {

TEST(RunningStats, Basic) {
    RunningStats s;
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
    // Sample variance of this classic data set: 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, EmptyAndSingle) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, MergeMatchesCombined) {
    RunningStats a, b, all;
    for (int i = 0; i < 100; ++i) {
        const double v = std::sin(i * 0.7) * 10.0 + i * 0.1;
        (i % 2 == 0 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a, empty;
    a.add(1.0);
    a.add(2.0);
    const double mean_before = a.mean();
    a.merge(empty);
    EXPECT_DOUBLE_EQ(a.mean(), mean_before);
    RunningStats c;
    c.merge(a);
    EXPECT_DOUBLE_EQ(c.mean(), mean_before);
}

TEST(Percentile, KnownValues) {
    const std::vector<double> data{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentile(data, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(data, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(data, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(data, 25.0), 2.0);
    EXPECT_DOUBLE_EQ(percentile(data, 12.5), 1.5);  // interpolated
}

TEST(Percentile, UnsortedInput) {
    EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0, 2.0, 4.0}, 50.0), 3.0);
}

TEST(Percentile, SingleElement) {
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, Errors) {
    EXPECT_THROW((void)percentile({}, 50.0), InvalidArgument);
    EXPECT_THROW((void)percentile({1.0}, -1.0), InvalidArgument);
    EXPECT_THROW((void)percentile({1.0}, 101.0), InvalidArgument);
    EXPECT_THROW((void)percentile_sorted({}, 50.0), InvalidArgument);
    EXPECT_THROW((void)percentile_sorted({1.0}, 101.0), InvalidArgument);
}

/// The textbook definition: sort everything, interpolate between the two
/// closest ranks.
double sorted_oracle(std::vector<double> data, double p) {
    std::sort(data.begin(), data.end());
    if (data.size() == 1) return data[0];
    const double rank = p / 100.0 * static_cast<double>(data.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= data.size()) return data.back();
    return data[lo] + frac * (data[lo + 1] - data[lo]);
}

TEST(Percentile, SelectionEqualsTheSortOracleBitForBit) {
    // Selection (nth_element + min of the upper part) must give the very
    // doubles a full sort gives, ties and extreme ranks included.
    RngStream rng(2010, "test.percentile");
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{1000}}) {
        std::vector<double> data;
        for (std::size_t i = 0; i < n; ++i) {
            // Coarse values so ties are common; every tenth is an outlier.
            const double v = std::floor(rng.uniform(0.0, 50.0)) / 4.0;
            data.push_back(i % 10 == 9 ? v * 1e3 : v);
        }
        std::vector<double> sorted = data;
        std::sort(sorted.begin(), sorted.end());
        std::vector<double> ps = {0.0, 50.0, 95.0, 99.0, 100.0};
        for (int k = 0; k < 20; ++k) ps.push_back(rng.uniform(0.0, 100.0));
        for (const double p : ps) {
            const double want = sorted_oracle(data, p);
            EXPECT_EQ(percentile(data, p), want) << "n " << n << " p " << p;
            EXPECT_EQ(percentile_sorted(sorted, p), want) << "n " << n << " p " << p;
        }
    }
}

TEST(Correlation, PerfectPositiveAndNegative) {
    const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
    const std::vector<double> y{2.0, 4.0, 6.0, 8.0};
    EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
    const std::vector<double> ny{8.0, 6.0, 4.0, 2.0};
    EXPECT_NEAR(pearson_correlation(x, ny), -1.0, 1e-12);
}

TEST(Correlation, ConstantSeriesIsZero) {
    EXPECT_DOUBLE_EQ(pearson_correlation({1.0, 2.0, 3.0}, {5.0, 5.0, 5.0}), 0.0);
}

TEST(Correlation, Errors) {
    EXPECT_THROW((void)pearson_correlation({1.0}, {1.0, 2.0}), InvalidArgument);
    EXPECT_THROW((void)pearson_correlation({1.0}, {1.0}), InvalidArgument);
}

TEST(HistogramTest, BinPlacement) {
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);   // bin 0
    h.add(9.9);   // bin 4
    h.add(5.0);   // bin 2
    EXPECT_EQ(h.bin_count(0), 1u);
    EXPECT_EQ(h.bin_count(2), 1u);
    EXPECT_EQ(h.bin_count(4), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(HistogramTest, OutOfRangeClampsToEdges) {
    Histogram h(0.0, 10.0, 5);
    h.add(-100.0);
    h.add(100.0);
    EXPECT_EQ(h.bin_count(0), 1u);
    EXPECT_EQ(h.bin_count(4), 1u);
}

TEST(HistogramTest, BinEdges) {
    Histogram h(-20.0, 20.0, 4);
    EXPECT_DOUBLE_EQ(h.bin_low(0), -20.0);
    EXPECT_DOUBLE_EQ(h.bin_high(0), -10.0);
    EXPECT_DOUBLE_EQ(h.bin_low(3), 10.0);
}

TEST(HistogramTest, Errors) {
    EXPECT_THROW(Histogram(0.0, 10.0, 0), InvalidArgument);
    EXPECT_THROW(Histogram(10.0, 10.0, 2), InvalidArgument);
    EXPECT_THROW(Histogram(11.0, 10.0, 2), InvalidArgument);
}

}  // namespace
}  // namespace zerodeg::core
