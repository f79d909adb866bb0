// Tests for the classical Newton-Raphson transient engine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "sim/transient.hpp"

using namespace ehdoe::sim;
using ehdoe::num::Vector;

TEST(Transient, LinearDecayAccuracy) {
    const auto rhs = [](double, const Vector& x) { return Vector{-10.0 * x[0]}; };
    TransientEngine eng(rhs, 1, {1e-3, 1});
    eng.set_state(Vector{1.0});
    eng.run(0.5);
    EXPECT_NEAR(eng.state()[0], std::exp(-5.0), 1e-5);
}

TEST(Transient, CountsNewtonAndJacobianWork) {
    const auto rhs = [](double, const Vector& x) {
        return Vector{-x[0] + 0.1 * x[0] * x[0] * x[0]};
    };
    TransientEngine eng(rhs, 1);
    eng.set_state(Vector{1.0});
    eng.run(0.01);
    const TransientStats& s = eng.stats();
    EXPECT_GT(s.steps, 0u);
    EXPECT_GE(s.newton_iterations, s.steps);
    EXPECT_GT(s.jacobian_builds, 0u);
    EXPECT_EQ(s.jacobian_builds, s.lu_factorizations);
    EXPECT_GT(s.rhs_evaluations, s.newton_iterations);
}

TEST(Transient, JacobianReuseReducesBuilds) {
    const auto rhs = [](double, const Vector& x) { return Vector{-x[0]}; };
    TransientOptions every;
    every.jacobian_reuse = 1;
    TransientOptions reuse;
    reuse.jacobian_reuse = 5;
    TransientEngine a(rhs, 1, every), b(rhs, 1, reuse);
    a.set_state(Vector{1.0});
    b.set_state(Vector{1.0});
    a.run(0.05);
    b.run(0.05);
    EXPECT_GE(a.stats().jacobian_builds, b.stats().jacobian_builds);
    EXPECT_NEAR(a.state()[0], b.state()[0], 1e-8);
}

TEST(Transient, StiffStability) {
    const auto rhs = [](double, const Vector& x) { return Vector{-1e5 * x[0]}; };
    TransientEngine eng(rhs, 1, {1e-3, 1});
    eng.set_state(Vector{1.0});
    // Trapezoidal is A-stable (not L-stable): the amplification factor at
    // h*lambda = -100 is -(49/51) per step, a slowly damped oscillation.
    eng.run(0.5);
    EXPECT_LT(std::fabs(eng.state()[0]), 1e-3);
    EXPECT_EQ(eng.stats().nonconverged_steps, 0u);
}

TEST(Transient, HardNonlinearityDiodeLikeRhs) {
    // Exponential "diode" into an RC: strongly nonlinear but must converge.
    const auto rhs = [](double t, const Vector& x) {
        const double vs = 1.0 * std::sin(2.0 * M_PI * 50.0 * t);
        const double i = 1e-9 * (std::exp((vs - x[0]) / 0.026) - 1.0);
        return Vector{(i - x[0] / 1e4) / 1e-6};
    };
    TransientEngine eng(rhs, 1, {1e-5, 1});
    eng.run(0.1);
    // Rectified mean with substantial RC ripple: positive, below the peak.
    EXPECT_GT(eng.state()[0], 0.1);
    EXPECT_LT(eng.state()[0], 1.0);
    EXPECT_LT(eng.stats().nonconverged_steps, eng.stats().steps / 100 + 1);
}

TEST(Transient, ObserverSeesEveryStep) {
    const auto rhs = [](double, const Vector& x) { return Vector{-x[0]}; };
    TransientEngine eng(rhs, 1, {1e-3, 1});
    eng.set_state(Vector{1.0});
    std::size_t n = 0;
    eng.run(0.01, [&](double, const Vector&) { ++n; });
    EXPECT_EQ(n, 10u);
}

TEST(Transient, OddDimensionLambdaGoldenIsBitwiseStable) {
    // A per-point lambda of odd dimension (a forced Van der Pol oscillator
    // and a lagging third state), 2 s at h = 1e-2: the final state and
    // every counter as hexfloats, so the Jacobian's finite-difference
    // columns and its last odd column keep their bits.
    const auto rhs = [](double t, const Vector& x) {
        return Vector{x[1], 2.0 * (1.0 - x[0] * x[0]) * x[1] - x[0] + 0.5 * std::cos(3.0 * t),
                      (x[0] - x[2]) / 0.3};
    };
    TransientOptions o;
    o.step = 1e-2;
    TransientEngine eng(rhs, 3, o);
    eng.set_state(Vector{1.5, 0.0, -0.5});
    eng.run(2.0);
    const auto hex = [](double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%a", v);
        return std::string(buf);
    };
    const std::string want[] = {"-0x1.d18e42f76b91dp-1", "-0x1.efccc347c83efp+1",
                                "-0x1.251fc083be14ep-4"};
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hex(eng.state()[i]), want[i]) << i;
    const TransientStats& s = eng.stats();
    EXPECT_EQ(s.steps, 200u);
    EXPECT_EQ(s.newton_iterations, 400u);
    EXPECT_EQ(s.jacobian_builds, 200u);
    EXPECT_EQ(s.lu_factorizations, 200u);
    EXPECT_EQ(s.rhs_evaluations, 1200u);
    EXPECT_EQ(s.nonconverged_steps, 0u);
}

TEST(Transient, PerPointRhsAnswersColumnsOneAtATime) {
    // A converted per-point callable answers the column block with one
    // point call per column at y + dy_j e_j, bit for bit, and leaves y as
    // it was.
    const auto f = [](double t, const Vector& x) {
        return Vector{x[1] * x[2], std::sin(t * x[0]) - x[2], x[0] * x[0] * x[1]};
    };
    const ehdoe::num::OdeRhs rhs = f;
    const Vector y{0.7, -1.3, 2.5};
    const Vector dy{1e-7, 3e-7, -2e-7};
    ehdoe::num::Matrix out(3, 3);
    rhs.columns(0.25, y, dy, out);
    for (std::size_t j = 0; j < 3; ++j) {
        Vector yj = y;
        yj[j] = y[j] + dy[j];
        const Vector want = f(0.25, yj);
        for (std::size_t i = 0; i < 3; ++i)
            EXPECT_EQ(std::memcmp(&out(i, j), want.data() + i, sizeof(double)), 0) << i << " " << j;
    }
    EXPECT_EQ(y[0], 0.7);
    Vector dx(3);
    rhs(0.25, y, dx);
    EXPECT_EQ(dx[1], f(0.25, y)[1]);
    Vector short_dx(2);
    EXPECT_THROW(rhs(0.25, y, short_dx), std::invalid_argument);
    ehdoe::num::Matrix wide(3, 4);
    EXPECT_THROW(rhs.columns(0.25, y, dy, wide), std::invalid_argument);
    EXPECT_FALSE(ehdoe::num::OdeRhs(nullptr));
    EXPECT_FALSE(ehdoe::num::OdeRhs(std::function<Vector(double, const Vector&)>()));
}

TEST(Transient, ValidatesArguments) {
    const auto rhs = [](double, const Vector& x) { return Vector{-x[0]}; };
    EXPECT_THROW(TransientEngine(nullptr, 1), std::invalid_argument);
    EXPECT_THROW(TransientEngine(rhs, 0), std::invalid_argument);
    TransientOptions bad;
    // +inf passed the old `step > 0` check.
    for (double step : {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
        bad.step = step;
        EXPECT_THROW(TransientEngine(rhs, 1, bad), std::invalid_argument) << "step " << step;
    }
    bad = TransientOptions{};
    bad.jacobian_reuse = 0;
    EXPECT_THROW(TransientEngine(rhs, 1, bad), std::invalid_argument);
    TransientEngine eng(rhs, 1);
    EXPECT_THROW(eng.set_state(Vector{1.0, 2.0}), std::invalid_argument);
    // run(+inf) never returned, and run(NaN) silently did nothing.
    for (double t_end : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_THROW(eng.run(t_end), std::invalid_argument) << "t_end " << t_end;
    }
    EXPECT_EQ(eng.stats().steps, 0u);
    // A per-point RHS whose result has the wrong dimension.
    TransientEngine wrong([](double, const Vector&) { return Vector{1.0, 2.0}; }, 1);
    EXPECT_THROW(wrong.step(), std::invalid_argument);
}

TEST(Transient, NanResidualCountsAsNonconvergedStep) {
    // x' = -x in 2 states from 1e-12, whose second RHS component turns NaN
    // past t = 0.5 ms. Each step's residual is taken at the step's end
    // time, so from the first step ending past 0.5 ms on every residual
    // holds a NaN, and every such step counts as not converged: a NaN must
    // not pass the tolerance test as a small residual.
    const auto rhs = [](double t, const Vector& x) {
        return Vector{-x[0], t > 0.5e-3 ? std::numeric_limits<double>::quiet_NaN() : -x[1]};
    };
    TransientEngine eng(rhs, 2, {1e-4, 1});
    eng.set_state(Vector{1e-12, 1e-12});
    std::size_t nan_steps = 0;
    for (int i = 0; i < 10; ++i) {
        eng.step();
        if (eng.time() > 0.5e-3) ++nan_steps;
    }
    EXPECT_EQ(eng.stats().steps, 10u);
    EXPECT_EQ(nan_steps, 5u);
    EXPECT_EQ(eng.stats().nonconverged_steps, nan_steps);
    EXPECT_TRUE(std::isnan(eng.state()[1]));
}

// Property: trapezoidal matches the analytic solution of a driven linear
// system across step sizes (2nd-order error).
class TransientStepP : public ::testing::TestWithParam<double> {};

TEST_P(TransientStepP, DrivenRcMatchesAnalytic) {
    const double h = GetParam();
    const double tau = 5e-3;
    const auto rhs = [tau](double, const Vector& x) {
        return Vector{(1.0 - x[0]) / tau};
    };
    TransientEngine eng(rhs, 1, {h, 1});
    eng.run(0.01);
    const double exact = 1.0 - std::exp(-0.01 / tau);
    EXPECT_NEAR(eng.state()[0], exact, 20.0 * h * h / (tau * tau));
}

INSTANTIATE_TEST_SUITE_P(Steps, TransientStepP, ::testing::Values(1e-4, 2e-4, 5e-4, 1e-3));
