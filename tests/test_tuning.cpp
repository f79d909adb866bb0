// Tuning map and actuator tests.
#include <gtest/gtest.h>

#include <cmath>

#include "harvester/tuning.hpp"

using namespace ehdoe::harvester;

TEST(TuningMap, SyntheticRangeAndMonotonicity) {
    const TuningMap m = TuningMap::synthetic();
    EXPECT_DOUBLE_EQ(m.f_min(), 65.0);
    EXPECT_DOUBLE_EQ(m.f_max(), 85.0);
    double prev = m.frequency(m.d_min());
    for (double d = m.d_min() + 0.1; d <= m.d_max(); d += 0.1) {
        const double f = m.frequency(d);
        EXPECT_LE(f, prev + 1e-9);
        prev = f;
    }
}

TEST(TuningMap, InverseRoundTrip) {
    const TuningMap m = TuningMap::synthetic();
    for (double f : {66.0, 70.0, 75.0, 80.0, 84.0}) {
        const double d = m.separation_for(f);
        EXPECT_NEAR(m.frequency(d), f, 1e-5);
    }
}

TEST(TuningMap, ClampsOutOfRange) {
    const TuningMap m = TuningMap::synthetic();
    EXPECT_NEAR(m.frequency(0.0), m.f_max(), 1e-9);
    EXPECT_NEAR(m.frequency(99.0), m.f_min(), 1e-9);
    EXPECT_NEAR(m.separation_for(100.0), m.d_min(), 1e-6);
    EXPECT_NEAR(m.separation_for(10.0), m.d_max(), 1e-6);
}

TEST(TuningMap, RejectsNonDecreasingCalibration) {
    EXPECT_THROW(TuningMap({1.0, 2.0, 3.0}, {70.0, 75.0, 72.0}), std::invalid_argument);
    EXPECT_THROW(TuningMap({1.0, 2.0}, {75.0, 70.0}), std::invalid_argument);  // < 3 pts
}

TEST(Actuator, MoveTakesTimeAndEnergy) {
    ActuatorParams p;
    p.speed_mm_per_s = 0.5;
    p.power_w = 0.01;
    TuningActuator a(p, 1.0);
    const double t_move = a.command(3.0, 0.0);
    EXPECT_NEAR(t_move, 4.0, 1e-12);
    a.update(2.0);  // halfway
    EXPECT_TRUE(a.moving());
    EXPECT_NEAR(a.position(), 2.0, 1e-9);
    a.update(5.0);  // done
    EXPECT_FALSE(a.moving());
    EXPECT_NEAR(a.position(), 3.0, 1e-12);
    EXPECT_NEAR(a.energy_consumed(5.0), 0.01 * 4.0, 1e-9);
    EXPECT_NEAR(a.travel(), 2.0, 1e-9);
    EXPECT_EQ(a.moves(), 1u);
}

TEST(Actuator, InFlightEnergyReportedBeforeUpdate) {
    ActuatorParams p;
    p.speed_mm_per_s = 1.0;
    p.power_w = 0.02;
    TuningActuator a(p, 0.0);
    a.command(2.0, 0.0);
    EXPECT_NEAR(a.energy_consumed(1.0), 0.02, 1e-9);   // 1 s into a 2 s move
    EXPECT_NEAR(a.energy_consumed(10.0), 0.04, 1e-9);  // capped at move end
}

TEST(Actuator, PreemptionKeepsPartialEnergy) {
    ActuatorParams p;
    p.speed_mm_per_s = 1.0;
    p.power_w = 0.02;
    TuningActuator a(p, 0.0);
    a.command(4.0, 0.0);      // 4 s move
    a.command(0.0, 1.0);      // pre-empt at t=1 (position 1.0), go back
    EXPECT_NEAR(a.position(), 1.0, 1e-9);
    a.update(3.0);            // 1 mm back takes 1 s; done at t=2
    EXPECT_FALSE(a.moving());
    EXPECT_NEAR(a.position(), 0.0, 1e-9);
    // Energy: 1 s out + 1 s back.
    EXPECT_NEAR(a.energy_consumed(3.0), 0.04, 1e-9);
}

TEST(Actuator, QuantizesToResolution) {
    ActuatorParams p;
    p.min_step_mm = 0.1;
    TuningActuator a(p, 0.0);
    a.command(1.234, 0.0);
    EXPECT_NEAR(a.target(), 1.2, 1e-12);
}

TEST(Actuator, ZeroDistanceMoveIsFree) {
    TuningActuator a(ActuatorParams{}, 2.0);
    EXPECT_DOUBLE_EQ(a.command(2.0, 0.0), 0.0);
    EXPECT_FALSE(a.moving());
    EXPECT_EQ(a.moves(), 0u);
}

TEST(Actuator, Validation) {
    ActuatorParams bad;
    bad.speed_mm_per_s = 0.0;
    EXPECT_THROW(TuningActuator(bad, 0.0), std::invalid_argument);
}
