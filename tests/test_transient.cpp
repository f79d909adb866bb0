// Tests for the classical Newton-Raphson transient engine.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/transient.hpp"

using namespace ehdoe::sim;
using ehdoe::num::Vector;

TEST(Transient, LinearDecayAccuracy) {
    const auto rhs = [](double, const Vector& x) { return Vector{-10.0 * x[0]}; };
    TransientEngine eng(rhs, 1, {1e-3, 1e-10, 30, 1e-7, 1});
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
    TransientEngine eng(rhs, 1, {1e-3, 1e-10, 30, 1e-7, 1});
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
    TransientEngine eng(rhs, 1, {1e-5, 1e-9, 50, 1e-7, 1});
    eng.run(0.1);
    // Rectified mean with substantial RC ripple: positive, below the peak.
    EXPECT_GT(eng.state()[0], 0.1);
    EXPECT_LT(eng.state()[0], 1.0);
    EXPECT_LT(eng.stats().nonconverged_steps, eng.stats().steps / 100 + 1);
}

TEST(Transient, ObserverSeesEveryStep) {
    const auto rhs = [](double, const Vector& x) { return Vector{-x[0]}; };
    TransientEngine eng(rhs, 1, {1e-3, 1e-10, 30, 1e-7, 1});
    eng.set_state(Vector{1.0});
    std::size_t n = 0;
    eng.run(0.01, [&](double, const Vector&) { ++n; });
    EXPECT_EQ(n, 10u);
}

TEST(Transient, ValidatesArguments) {
    const auto rhs = [](double, const Vector& x) { return Vector{-x[0]}; };
    EXPECT_THROW(TransientEngine(nullptr, 1), std::invalid_argument);
    EXPECT_THROW(TransientEngine(rhs, 0), std::invalid_argument);
    TransientOptions bad;
    bad.step = -1.0;
    EXPECT_THROW(TransientEngine(rhs, 1, bad), std::invalid_argument);
    // A zero or NaN perturbation makes every Jacobian column 0/0, and no
    // Newton iteration returns the explicit-Euler predictor as the step.
    for (double eps : {0.0, -1e-7, std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
        bad = TransientOptions{};
        bad.fd_eps = eps;
        EXPECT_THROW(TransientEngine(rhs, 1, bad), std::invalid_argument) << "fd_eps " << eps;
    }
    for (int iters : {0, -3}) {
        bad = TransientOptions{};
        bad.max_newton_iters = iters;
        EXPECT_THROW(TransientEngine(rhs, 1, bad), std::invalid_argument) << "iters " << iters;
    }
    bad = TransientOptions{};
    bad.max_newton_iters = 1;
    EXPECT_NO_THROW(TransientEngine(rhs, 1, bad));
    TransientEngine eng(rhs, 1);
    EXPECT_THROW(eng.set_state(Vector{1.0, 2.0}), std::invalid_argument);
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
    TransientEngine eng(rhs, 1, {h, 1e-12, 30, 1e-7, 1});
    eng.run(0.01);
    const double exact = 1.0 - std::exp(-0.01 / tau);
    EXPECT_NEAR(eng.state()[0], exact, 20.0 * h * h / (tau * tau));
}

INSTANTIATE_TEST_SUITE_P(Steps, TransientStepP, ::testing::Values(1e-4, 2e-4, 5e-4, 1e-3));
