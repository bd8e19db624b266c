// The hazard lookup table HostHazardModel evaluates through.
//
// Accuracy protects the census results: the tabulated Arrhenius/Peck factors
// match the analytic models to 1e-9 relative across the whole acceptance
// grid, and fall back to the analytic models *exactly* outside the
// tabulated window.
#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"
#include "faults/hazard_table.hpp"

namespace zerodeg::faults {
namespace {

using core::Celsius;
using core::RelHumidity;

constexpr double kEa = 0.5;
constexpr Celsius kTRef{45.0};
constexpr double kPeckN = 2.7;
constexpr RelHumidity kRhRef{50.0};

TEST(HazardTable, ArrheniusMatchesAnalyticOverAcceptanceGrid) {
    const HazardTable table(kEa, kTRef, kPeckN, kRhRef);
    const ArrheniusModel analytic(kEa, kTRef);
    double worst = 0.0;
    // The acceptance grid: -40..+60 degC in 0.01-degree steps (10001 points,
    // deliberately incommensurate with the 0.125-degree knot spacing).
    for (int i = 0; i <= 10000; ++i) {
        const Celsius t{-40.0 + 0.01 * i};
        const double exact = analytic.acceleration(t);
        const double approx = table.arrhenius(t);
        const double rel = std::abs(approx - exact) / exact;
        if (rel > worst) worst = rel;
    }
    EXPECT_LE(worst, 1e-9) << "worst relative error " << worst;
}

TEST(HazardTable, PeckMatchesAnalyticOverAcceptanceGrid) {
    const HazardTable table(kEa, kTRef, kPeckN, kRhRef);
    const PeckModel analytic(kPeckN, kRhRef);
    double worst = 0.0;
    // 40..105 %RH covers everything above the humidity knee plus the
    // supersaturated readings a fogged sensor can report.
    for (int i = 0; i <= 6500; ++i) {
        const RelHumidity rh{40.0 + 0.01 * i};
        const double exact = analytic.acceleration(rh);
        const double approx = table.peck(rh);
        const double rel = std::abs(approx - exact) / exact;
        if (rel > worst) worst = rel;
    }
    EXPECT_LE(worst, 1e-9) << "worst relative error " << worst;
}

TEST(HazardTable, OutOfRangeFallsBackToAnalyticExactly) {
    const HazardTable table(kEa, kTRef, kPeckN, kRhRef);
    const ArrheniusModel arr(kEa, kTRef);
    const PeckModel peck(kPeckN, kRhRef);
    // Outside the tabulated window the table *is* the analytic model — not
    // an approximation of it — so these must be equal to the last bit.
    EXPECT_DOUBLE_EQ(table.arrhenius(Celsius{-80.0}), arr.acceleration(Celsius{-80.0}));
    EXPECT_DOUBLE_EQ(table.arrhenius(Celsius{150.0}), arr.acceleration(Celsius{150.0}));
    EXPECT_DOUBLE_EQ(table.peck(RelHumidity{20.0}), peck.acceleration(RelHumidity{20.0}));
    EXPECT_DOUBLE_EQ(table.peck(RelHumidity{130.0}), peck.acceleration(RelHumidity{130.0}));
    // The analytic domain guards survive the table layer.
    EXPECT_THROW((void)table.arrhenius(Celsius{-300.0}), core::InvalidArgument);
}

}  // namespace
}  // namespace zerodeg::faults
