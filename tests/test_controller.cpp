// Tuning controller decision tests.
#include <gtest/gtest.h>

#include <cmath>

#include "node/controller.hpp"

using namespace ehdoe::node;
using namespace ehdoe::harvester;

namespace {
TuningControllerParams quiet_params() {
    TuningControllerParams p;
    p.estimator_sigma_hz = 0.0;  // deterministic estimates for the tests
    return p;
}
}  // namespace

TEST(Controller, RetunesWhenOutsideDeadband) {
    const TuningMap map = TuningMap::synthetic();
    TuningControllerParams p = quiet_params();
    p.deadband_hz = 1.0;
    TuningController ctl(p, &map);
    TuningActuator act(ActuatorParams{}, map.separation_for(70.0));
    const CheckOutcome out = ctl.check(0.0, 78.0, 3.0, act);
    EXPECT_EQ(out.estimated_hz, 78.0);  // an exact estimator reports the true frequency
    EXPECT_TRUE(out.retuned);
    EXPECT_NEAR(out.target_hz, 78.0, 1e-9);
    EXPECT_GT(out.move_time, 0.0);
    EXPECT_EQ(ctl.retunes(), 1u);
    act.update(100.0);
    EXPECT_NEAR(map.frequency(act.position()), 78.0, 0.2);
}

TEST(Controller, HoldsInsideDeadband) {
    const TuningMap map = TuningMap::synthetic();
    TuningControllerParams p = quiet_params();
    p.deadband_hz = 2.0;
    TuningController ctl(p, &map);
    TuningActuator act(ActuatorParams{}, map.separation_for(70.0));
    const CheckOutcome out = ctl.check(0.0, 71.0, 3.0, act);
    EXPECT_FALSE(out.retuned);
    EXPECT_EQ(ctl.retunes(), 0u);
    EXPECT_EQ(ctl.checks(), 1u);
}

TEST(Controller, LowVoltageGatesActuation) {
    const TuningMap map = TuningMap::synthetic();
    TuningControllerParams p = quiet_params();
    p.deadband_hz = 0.5;
    p.min_voltage = 2.1;
    TuningController ctl(p, &map);
    TuningActuator act(ActuatorParams{}, map.separation_for(70.0));
    EXPECT_FALSE(ctl.check(0.0, 80.0, 1.8, act).retuned);
    EXPECT_TRUE(ctl.check(10.0, 80.0, 2.5, act).retuned);
}

TEST(Controller, ClampsTargetToTunableRange) {
    const TuningMap map = TuningMap::synthetic();
    TuningControllerParams p = quiet_params();
    p.deadband_hz = 0.5;
    TuningController ctl(p, &map);
    TuningActuator act(ActuatorParams{}, map.separation_for(75.0));
    // Excitation far above the attainable range.
    const CheckOutcome out = ctl.check(0.0, 120.0, 3.0, act);
    EXPECT_TRUE(out.retuned);
    EXPECT_NEAR(out.target_hz, map.f_max(), 1e-9);
}

TEST(Controller, EstimatorNoiseIsSeeded) {
    const TuningMap map = TuningMap::synthetic();
    TuningControllerParams p;
    p.estimator_sigma_hz = 0.5;
    p.rng_seed = 77;
    TuningController a(p, &map), b(p, &map);
    TuningActuator actA(ActuatorParams{}, 3.0), actB(ActuatorParams{}, 3.0);
    for (int i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(a.check(i, 72.0, 3.0, actA).estimated_hz,
                         b.check(i, 72.0, 3.0, actB).estimated_hz);
    }
}

TEST(Controller, Validation) {
    const TuningMap map = TuningMap::synthetic();
    EXPECT_THROW(TuningController(quiet_params(), nullptr), std::invalid_argument);
    TuningControllerParams bad = quiet_params();
    bad.check_period = 0.0;
    EXPECT_THROW(TuningController(bad, &map), std::invalid_argument);
    bad = quiet_params();
    bad.deadband_hz = -1.0;
    EXPECT_THROW(TuningController(bad, &map), std::invalid_argument);
}

// Property: the dead-band is respected exactly at its boundary.
class DeadbandP : public ::testing::TestWithParam<double> {};

TEST_P(DeadbandP, BoundaryBehaviour) {
    const TuningMap map = TuningMap::synthetic();
    TuningControllerParams p = quiet_params();
    p.deadband_hz = GetParam();
    TuningController ctl(p, &map);
    TuningActuator act(ActuatorParams{}, map.separation_for(72.0));
    EXPECT_FALSE(ctl.check(0.0, 72.0 + GetParam() * 0.95, 3.0, act).retuned);
    EXPECT_TRUE(ctl.check(10.0, 72.0 + GetParam() * 1.10 + 0.05, 3.0, act).retuned);
}

INSTANTIATE_TEST_SUITE_P(Bands, DeadbandP, ::testing::Values(0.25, 0.5, 1.0, 2.0));
