// Integrator accuracy, convergence order and cost accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "numerics/ode.hpp"

using namespace ehdoe::num;

namespace {

// x' = -x, x(0) = 1 -> x(t) = e^-t.
const OdeRhs kDecay = [](double, const Vector& x) { return Vector{-x[0]}; };

// Harmonic oscillator x'' = -w^2 x as first-order system; energy preserved.
OdeRhs oscillator(double w) {
    return [w](double, const Vector& x) { return Vector{x[1], -w * w * x[0]}; };
}

}  // namespace

TEST(Euler, FirstOrderConvergence) {
    const double e1 = std::fabs(integrate_euler(kDecay, Vector{1.0}, 0.0, 1.0, 1e-2)
                                    .final_state()[0] - std::exp(-1.0));
    const double e2 = std::fabs(integrate_euler(kDecay, Vector{1.0}, 0.0, 1.0, 5e-3)
                                    .final_state()[0] - std::exp(-1.0));
    EXPECT_GT(e1 / e2, 1.7);  // halving h roughly halves the error
    EXPECT_LT(e1 / e2, 2.3);
}

TEST(Rk4, FourthOrderConvergence) {
    const double e1 = std::fabs(integrate_rk4(kDecay, Vector{1.0}, 0.0, 1.0, 1e-1)
                                    .final_state()[0] - std::exp(-1.0));
    const double e2 = std::fabs(integrate_rk4(kDecay, Vector{1.0}, 0.0, 1.0, 5e-2)
                                    .final_state()[0] - std::exp(-1.0));
    EXPECT_GT(e1 / e2, 12.0);  // ~16x per halving
    EXPECT_LT(e1 / e2, 20.0);
}

TEST(Rk4, OscillatorAccuracy) {
    const double w = 2.0;
    const OdeSolution s = integrate_rk4(oscillator(w), Vector{1.0, 0.0}, 0.0, 5.0, 1e-3);
    EXPECT_NEAR(s.final_state()[0], std::cos(w * 5.0), 1e-8);
    EXPECT_NEAR(s.final_state()[1], -w * std::sin(w * 5.0), 1e-7);
    EXPECT_EQ(s.rhs_evaluations, 4 * s.steps_taken);
}

TEST(Rkf45, MeetsTolerance) {
    Rkf45Options opt;
    opt.abs_tol = 1e-10;
    opt.rel_tol = 1e-8;
    const OdeSolution s = integrate_rkf45(kDecay, Vector{1.0}, 0.0, 2.0, opt);
    EXPECT_NEAR(s.final_state()[0], std::exp(-2.0), 1e-7);
    EXPECT_GT(s.steps_taken, 0u);
}

TEST(Rkf45, AdaptsStepOnStiffness) {
    // Fast transient then slow decay: expect far fewer steps than fixed-h at
    // equal accuracy would need.
    const OdeRhs rhs = [](double, const Vector& x) {
        return Vector{-100.0 * x[0], -0.1 * x[1]};
    };
    Rkf45Options opt;
    opt.h_max = 1.0;
    const OdeSolution s = integrate_rkf45(rhs, Vector{1.0, 1.0}, 0.0, 10.0, opt);
    EXPECT_NEAR(s.final_state()[1], std::exp(-1.0), 1e-4);
    EXPECT_LT(s.steps_taken, 5000u);
}

TEST(OdeSolution, InterpolatesDenseOutput) {
    const OdeSolution s = integrate_rk4(kDecay, Vector{1.0}, 0.0, 1.0, 1e-2);
    const Vector mid = s.at(0.5);
    EXPECT_NEAR(mid[0], std::exp(-0.5), 1e-4);
    EXPECT_DOUBLE_EQ(s.at(-1.0)[0], 1.0);                         // clamp low
    EXPECT_DOUBLE_EQ(s.at(2.0)[0], s.final_state()[0]);           // clamp high
}

TEST(Ode, ValidatesArguments) {
    EXPECT_THROW(integrate_rk4(kDecay, Vector{1.0}, 1.0, 0.0, 1e-2), std::invalid_argument);
    EXPECT_THROW(integrate_rk4(kDecay, Vector{1.0}, 0.0, 1.0, -1e-2), std::invalid_argument);
    EXPECT_THROW(integrate_euler(kDecay, Vector{1.0}, 0.0, 1.0, 0.0), std::invalid_argument);
}

// Property: all integrators agree on a smooth nonlinear problem.
class IntegratorAgreementP : public ::testing::TestWithParam<double> {};

TEST_P(IntegratorAgreementP, LogisticGrowth) {
    const double r = GetParam();
    // x' = r x (1 - x), x(0)=0.1 -> logistic closed form.
    const OdeRhs rhs = [r](double, const Vector& x) {
        return Vector{r * x[0] * (1.0 - x[0])};
    };
    const double x0 = 0.1, t1 = 2.0;
    const double exact = 1.0 / (1.0 + (1.0 / x0 - 1.0) * std::exp(-r * t1));
    EXPECT_NEAR(integrate_rk4(rhs, Vector{x0}, 0.0, t1, 1e-3).final_state()[0], exact, 1e-8);
    EXPECT_NEAR(integrate_rkf45(rhs, Vector{x0}, 0.0, t1).final_state()[0], exact, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Rates, IntegratorAgreementP, ::testing::Values(0.5, 1.0, 2.0, 4.0));
