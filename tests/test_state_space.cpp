// Tests for the explicit linearized (PWL) state-space engine.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/state_space.hpp"

using namespace ehdoe::sim;
using ehdoe::num::Matrix;
using ehdoe::num::Vector;

namespace {

/// Plain LTI (no switches): v' = (u - v)/tau.
PwlSystem rc_system(double tau) {
    PwlSystem s;
    s.state_dim = 1;
    s.input_dim = 1;
    s.assemble = [tau](std::uint32_t, Matrix& a, Matrix& b) {
        a(0, 0) = -1.0 / tau;
        b(0, 0) = 1.0 / tau;
    };
    return s;
}

/// One-switch system: a "diode" from source node into the state. Off: decay
/// only; on (x[0] < vthr implies source conducts... modelled on the branch
/// voltage u_const - x[0]): charging path appears.
PwlSystem charger_system(double tau_leak, double r_on, double c, double v_src, double v_on) {
    PwlSystem s;
    s.state_dim = 1;
    s.input_dim = 1;  // constant-1 input
    s.switches.push_back(PwlSwitch{v_on});
    s.assemble = [=](std::uint32_t seg, Matrix& a, Matrix& b) {
        a(0, 0) = -1.0 / tau_leak;
        if (seg & 1u) {
            // i = (v_src - x - v_on)/r_on into the capacitor.
            a(0, 0) += -1.0 / (r_on * c);
            b(0, 0) = (v_src - v_on) / (r_on * c);
        } else {
            b(0, 0) = 0.0;
        }
    };
    s.branch_voltage = [=](std::size_t, const Vector& x) { return v_src - x[0]; };
    return s;
}

}  // namespace

TEST(PwlEngine, ExactForLinearSystem) {
    const double tau = 1e-3;
    PwlEngineOptions opt;
    opt.step = 2e-4;  // large step: exact anyway, that is the point of [4]
    PwlStateSpaceEngine eng(rc_system(tau), opt);
    const Vector u{1.0};
    for (int i = 0; i < 10; ++i) eng.step(u);
    const double t = eng.time();
    EXPECT_NEAR(eng.state()[0], 1.0 - std::exp(-t / tau), 1e-12);
}

TEST(PwlEngine, CachesDiscretization) {
    PwlStateSpaceEngine eng(rc_system(1e-3), {1e-4, true, 4});
    const Vector u{1.0};
    for (int i = 0; i < 100; ++i) eng.step(u);
    EXPECT_EQ(eng.stats().cache_misses, 1u);   // one segment, one expm
    EXPECT_EQ(eng.stats().cache_hits, 99u);
    EXPECT_EQ(eng.cache_size(), 1u);
}

TEST(PwlEngine, InvalidateCacheForcesRebuild) {
    PwlStateSpaceEngine eng(rc_system(1e-3), {1e-4, true, 4});
    const Vector u{1.0};
    eng.step(u);
    eng.invalidate_cache();
    eng.step(u);
    EXPECT_EQ(eng.stats().cache_misses, 2u);
    EXPECT_EQ(eng.cache_size(), 1u);  // the stale discretization is freed
}

TEST(PwlEngine, SwitchTurnsOnAndCharges) {
    // v_src = 2, v_on = 0.5: switch is on at x=0 (branch v = 2 > 0.5), charges
    // toward (v_src - v_on) balanced against leak.
    PwlStateSpaceEngine eng(charger_system(10.0, 100.0, 1e-3, 2.0, 0.5), {1e-3, true, 4});
    const Vector u{1.0};
    for (int i = 0; i < 5000; ++i) eng.step(u);
    EXPECT_GT(eng.state()[0], 1.0);
    EXPECT_LT(eng.state()[0], 1.5 + 1e-6);  // cannot exceed v_src - v_on
}

TEST(PwlEngine, SegmentChangesAreCounted) {
    // Start above v_src - v_on: the diode is off and the leak discharges the
    // state until the branch voltage crosses the threshold and it turns on.
    PwlStateSpaceEngine eng(charger_system(0.05, 50.0, 1e-3, 2.0, 0.5), {1e-3, true, 4});
    eng.set_state(Vector{1.8});
    EXPECT_EQ(eng.segment(), 0u);  // branch voltage 0.2 < v_on
    const Vector u{1.0};
    for (int i = 0; i < 3000; ++i) eng.step(u);
    EXPECT_GE(eng.stats().segment_changes, 1u);
    EXPECT_EQ(eng.segment(), 1u);  // settled conducting at x ~ 0.75
    EXPECT_NEAR(eng.state()[0], 0.75, 1e-3);
}

TEST(PwlEngine, RunWithObserver) {
    PwlStateSpaceEngine eng(rc_system(1e-2), {1e-3, true, 4});
    std::size_t calls = 0;
    double last_t = 0.0;
    eng.run(
        0.05, [](double) { return Vector{1.0}; },
        [&](double t, const Vector& x) {
            ++calls;
            EXPECT_GT(t, last_t);
            last_t = t;
            EXPECT_GE(x[0], 0.0);
        });
    EXPECT_EQ(calls, 50u);
    EXPECT_NEAR(eng.time(), 0.05, 1e-9);
}

TEST(PwlEngine, ValidatesConstruction) {
    PwlSystem s;  // empty
    EXPECT_THROW(PwlStateSpaceEngine(s, {}), std::invalid_argument);

    PwlSystem good = rc_system(1.0);
    PwlEngineOptions bad;
    // +inf passed the old `step > 0` check.
    for (double step : {0.0, -1e-3, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
        bad.step = step;
        EXPECT_THROW(PwlStateSpaceEngine(good, bad), std::invalid_argument) << "step " << step;
    }
    // run(+inf) never returned, and run(NaN) silently did nothing.
    PwlStateSpaceEngine eng(good, {});
    const auto input = [](double) { return Vector{1.0}; };
    for (double t_end : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_THROW(eng.run(t_end, input), std::invalid_argument) << "t_end " << t_end;
    }
    EXPECT_EQ(eng.stats().steps, 0u);

    PwlSystem missing_bv = rc_system(1.0);
    missing_bv.switches.push_back(PwlSwitch{0.3});
    EXPECT_THROW(PwlStateSpaceEngine(missing_bv, {}), std::invalid_argument);
}

TEST(PwlEngine, ValidatesStepInput) {
    PwlStateSpaceEngine eng(rc_system(1.0), {1e-3, true, 4});
    EXPECT_THROW(eng.step(Vector{1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(eng.set_state(Vector{1.0, 2.0}), std::invalid_argument);
}

// Property: engine result is independent of step size for LTI systems
// (exactness of the ZOH discretization) at times that are common multiples.
class PwlStepP : public ::testing::TestWithParam<double> {};

TEST_P(PwlStepP, StepSizeInvariantForLti) {
    const double h = GetParam();
    PwlEngineOptions opt;
    opt.step = h;
    PwlStateSpaceEngine eng(rc_system(2e-3), opt);
    const Vector u{1.0};
    const int steps = static_cast<int>(std::lround(1e-2 / h));
    for (int i = 0; i < steps; ++i) eng.step(u);
    EXPECT_NEAR(eng.state()[0], 1.0 - std::exp(-1e-2 / 2e-3), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Steps, PwlStepP, ::testing::Values(1e-4, 2e-4, 5e-4, 1e-3, 2.5e-3));
