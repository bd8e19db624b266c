#include "faults/hazard.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"

namespace zerodeg::faults {
namespace {

TEST(Arrhenius, ReferenceIsUnity) {
    const ArrheniusModel m(0.5, Celsius{45.0});
    EXPECT_NEAR(m.acceleration(Celsius{45.0}), 1.0, 1e-12);
}

TEST(Arrhenius, HotAcceleratesColdDecelerates) {
    const ArrheniusModel m(0.5, Celsius{45.0});
    EXPECT_GT(m.acceleration(Celsius{65.0}), 2.0);
    // The physics behind the paper's result: cold silicon wears slower.
    EXPECT_LT(m.acceleration(Celsius{0.0}), 0.2);
    EXPECT_GT(m.acceleration(Celsius{0.0}), 0.0);
}

TEST(Arrhenius, Monotone) {
    const ArrheniusModel m(0.7, Celsius{45.0});
    double prev = 0.0;
    for (double t = -30.0; t <= 100.0; t += 5.0) {
        const double a = m.acceleration(Celsius{t});
        EXPECT_GT(a, prev);
        prev = a;
    }
    EXPECT_THROW(ArrheniusModel(0.0, Celsius{45.0}), core::InvalidArgument);
    EXPECT_THROW((void)m.acceleration(Celsius{-300.0}), core::InvalidArgument);
}

TEST(Peck, ReferenceIsUnity) {
    const PeckModel m(2.7, RelHumidity{50.0});
    EXPECT_NEAR(m.acceleration(RelHumidity{50.0}), 1.0, 1e-12);
    // "relative humidities above 80% or 90%" — roughly 3.6x and 4.9x at
    // n = 2.7.
    EXPECT_NEAR(m.acceleration(RelHumidity{80.0}), std::pow(1.6, 2.7), 1e-9);
    EXPECT_GT(m.acceleration(RelHumidity{90.0}), m.acceleration(RelHumidity{80.0}));
}

TEST(Peck, LowHumidityClampAvoidsZero) {
    const PeckModel m(2.7, RelHumidity{50.0});
    EXPECT_GT(m.acceleration(RelHumidity{0.0}), 0.0);
    EXPECT_THROW(PeckModel(0.0, RelHumidity{50.0}), core::InvalidArgument);
    EXPECT_THROW(PeckModel(2.7, RelHumidity{0.0}), core::InvalidArgument);
}

TEST(ColdStress, UnityAboveThreshold) {
    const ColdStressModel m(Celsius{0.0}, 0.006);
    EXPECT_DOUBLE_EQ(m.acceleration(Celsius{0.0}), 1.0);
    EXPECT_DOUBLE_EQ(m.acceleration(Celsius{21.0}), 1.0);
}

TEST(ColdStress, QuadraticBelow) {
    const ColdStressModel m(Celsius{0.0}, 0.006);
    EXPECT_NEAR(m.acceleration(Celsius{-10.0}), 1.6, 1e-9);
    EXPECT_NEAR(m.acceleration(Celsius{-22.0}), 1.0 + 0.006 * 484.0, 1e-9);
    EXPECT_THROW(ColdStressModel(Celsius{0.0}, -1.0), core::InvalidArgument);
}

TEST(Bathtub, Shape) {
    const BathtubHazard h;
    // Infant mortality: hour 0 above hour 5000.
    EXPECT_GT(h.hazard_per_hour(0.0), h.hazard_per_hour(5000.0));
    // Useful life: flat-ish mid-curve.
    EXPECT_NEAR(h.hazard_per_hour(10000.0), h.hazard_per_hour(20000.0), 2e-6);
    // Wear-out: rises past onset.
    EXPECT_GT(h.hazard_per_hour(60000.0), 2.0 * h.hazard_per_hour(10000.0));
    EXPECT_THROW((void)h.hazard_per_hour(-1.0), core::InvalidArgument);
}

TEST(HostHazard, BasementReferenceRate) {
    const HostHazardModel m;
    StressState office;
    office.intake = Celsius{21.0};
    office.humidity = RelHumidity{35.0};
    office.age_hours = 10000.0;
    const double per_hour = m.hazard_per_hour(office);
    // Near base AFR at reference conditions.
    EXPECT_NEAR(per_hour * 8766.0, m.params().base_afr, m.params().base_afr * 0.25);
}

TEST(HostHazard, TentIsWorseThanBasement) {
    const HostHazardModel m;
    StressState basement;
    basement.intake = Celsius{21.0};
    basement.humidity = RelHumidity{35.0};
    basement.age_hours = 22000.0;

    StressState tent = basement;
    tent.intake = Celsius{-15.0};
    tent.humidity = RelHumidity{85.0};
    tent.cycling_rate_k_per_h = 1.5;
    EXPECT_GT(m.hazard_per_hour(tent), m.hazard_per_hour(basement));
}

TEST(HostHazard, UnreliableSeriesMultiplier) {
    const HostHazardModel m;
    StressState s;
    s.age_hours = 22000.0;
    const double reliable = m.hazard_per_hour(s);
    s.known_unreliable = true;
    EXPECT_NEAR(m.hazard_per_hour(s) / reliable, m.params().unreliable_multiplier, 1e-9);
}

TEST(HostHazard, HumidityKneeGates) {
    const HostHazardModel m;
    StressState dry;
    dry.age_hours = 22000.0;
    dry.intake = Celsius{5.0};
    dry.humidity = RelHumidity{70.0};
    StressState damp = dry;
    damp.humidity = RelHumidity{79.0};
    // Below the knee: humidity has no effect.
    EXPECT_DOUBLE_EQ(m.hazard_per_hour(dry), m.hazard_per_hour(damp));
    StressState wet = dry;
    wet.humidity = RelHumidity{92.0};
    EXPECT_GT(m.hazard_per_hour(wet), m.hazard_per_hour(dry));
}

TEST(HostHazard, CyclingRaisesHazard) {
    const HostHazardModel m;
    StressState calm;
    calm.age_hours = 22000.0;
    StressState swinging = calm;
    swinging.cycling_rate_k_per_h = 2.0;
    EXPECT_NEAR(m.hazard_per_hour(swinging) / m.hazard_per_hour(calm),
                1.0 + m.params().cycling_coeff_per_k_per_h * 2.0, 1e-9);
}

// Property: hazard is positive and finite across the whole operating
// envelope the experiment visits.
struct Envelope {
    double intake;
    double rh;
    double cycling;
};

class HazardEnvelope : public ::testing::TestWithParam<Envelope> {};

TEST_P(HazardEnvelope, PositiveFinite) {
    const Envelope e = GetParam();
    const HostHazardModel m;
    StressState s;
    s.intake = Celsius{e.intake};
    s.humidity = RelHumidity{e.rh};
    s.cycling_rate_k_per_h = e.cycling;
    s.age_hours = 22000.0;
    const double h = m.hazard_per_hour(s);
    EXPECT_GT(h, 0.0);
    EXPECT_LT(h, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HazardEnvelope,
                         ::testing::Values(Envelope{-25.0, 95.0, 5.0}, Envelope{-10.0, 85.0, 2.0},
                                           Envelope{0.0, 60.0, 1.0}, Envelope{21.0, 35.0, 0.0},
                                           Envelope{35.0, 99.0, 0.5}));

}  // namespace
}  // namespace zerodeg::faults
