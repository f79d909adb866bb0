// Hold-out validation tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "doe/composite.hpp"
#include "doe/lhs.hpp"
#include "numerics/stats.hpp"
#include "rsm/validate.hpp"

using namespace ehdoe::rsm;
using ehdoe::num::Vector;

namespace {
double truth(const Vector& x) { return 1.0 + 2.0 * x[0] - x[1] + 0.8 * x[0] * x[1]; }
}  // namespace

TEST(Holdout, PerfectModelZeroError) {
    const auto d = ehdoe::doe::central_composite(2, {});
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) y[i] = truth(d.points.row(i));
    const FitResult f = fit_ols(ModelSpec(2, ModelOrder::Quadratic), d.points, y);

    const auto probe = ehdoe::doe::latin_hypercube(40, 2, 5);
    std::vector<double> yv(probe.runs());
    for (std::size_t i = 0; i < probe.runs(); ++i) yv[i] = truth(probe.points.row(i));
    const ValidationReport r = validate_holdout(f, probe.points, yv);
    EXPECT_NEAR(r.rmse, 0.0, 1e-9);
    EXPECT_NEAR(r.r_squared, 1.0, 1e-9);
    EXPECT_EQ(r.points, 40u);
}

TEST(Holdout, ReportsNoiseFloor) {
    ehdoe::num::Rng rng = ehdoe::num::make_rng(2);
    const auto d = ehdoe::doe::latin_hypercube(80, 2, 8);
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) {
        y[i] = truth(d.points.row(i)) + ehdoe::num::normal(rng, 0.0, 0.3);
    }
    const FitResult f = fit_ols(ModelSpec(2, ModelOrder::Quadratic), d.points, y);
    const auto probe = ehdoe::doe::latin_hypercube(100, 2, 55);
    std::vector<double> yv(probe.runs());
    for (std::size_t i = 0; i < probe.runs(); ++i) {
        yv[i] = truth(probe.points.row(i)) + ehdoe::num::normal(rng, 0.0, 0.3);
    }
    const ValidationReport r = validate_holdout(f, probe.points, yv);
    EXPECT_NEAR(r.rmse, 0.3, 0.12);  // dominated by observation noise
    EXPECT_GT(r.nrmse_mean, 0.0);
    EXPECT_GT(r.nrmse_range, 0.0);
    EXPECT_GE(r.max_abs_error, r.mean_abs_error);
}

TEST(Holdout, ConstantHoldoutIsNormalisedByTheTrainingRange) {
    // Every hold-out response is 0 (think: no downtime anywhere in the
    // hold-out set) while the surface, fitted where downtime happens,
    // predicts otherwise. The hold-out has no range, mean |y| or spread of
    // its own, so the training responses normalise the error.
    const auto d = ehdoe::doe::central_composite(2, {});
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) y[i] = truth(d.points.row(i));
    const FitResult f = fit_ols(ModelSpec(2, ModelOrder::Quadratic), d.points, y);
    const auto [lo, hi] = std::minmax_element(y.begin(), y.end());

    const auto probe = ehdoe::doe::latin_hypercube(40, 2, 5);
    const std::vector<double> zeros(probe.runs(), 0.0);
    const ValidationReport r = validate_holdout(f, probe.points, zeros);
    EXPECT_GT(r.rmse, 0.5);
    EXPECT_EQ(r.nrmse_range, r.rmse / (*hi - *lo));

    double mean_abs = 0.0;
    for (const double v : y) mean_abs += std::fabs(v);
    mean_abs /= static_cast<double>(y.size());
    EXPECT_DOUBLE_EQ(r.nrmse_mean, r.rmse / mean_abs);
    // R^2 against the training mean as the baseline predictor: a surface
    // that misses the zeros by more than that baseline scores below 0.
    const double ybar = ehdoe::num::mean(y);
    double sse = 0.0, baseline = 0.0;
    for (const double p : f.predict(probe.points)) sse += p * p;
    for (const double v : zeros) baseline += (v - ybar) * (v - ybar);
    EXPECT_DOUBLE_EQ(r.r_squared, 1.0 - sse / baseline);
    EXPECT_LT(r.r_squared, 0.0);

    // A surface fitted to a constant, checked on the same constant: every
    // training denominator is zero too, and so is the error.
    const FitResult flat = fit_ols(ModelSpec(2, ModelOrder::Linear), d.points,
                                   std::vector<double>(d.runs(), 0.0));
    const ValidationReport exact = validate_holdout(flat, probe.points, zeros);
    EXPECT_EQ(exact.nrmse_range, 0.0);
    EXPECT_EQ(exact.nrmse_mean, 0.0);
    EXPECT_EQ(exact.r_squared, 1.0);
}
