// OLS fit tests: exact polynomial recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "doe/composite.hpp"
#include "doe/lhs.hpp"
#include "numerics/stats.hpp"
#include "rsm/fit.hpp"

using namespace ehdoe::rsm;
using ehdoe::num::Vector;

namespace {

// Ground-truth quadratic y = 2 + x0 - 3 x1 + 0.5 x0 x1 + 1.5 x0^2.
double truth(const Vector& x) {
    return 2.0 + x[0] - 3.0 * x[1] + 0.5 * x[0] * x[1] + 1.5 * x[0] * x[0];
}

}  // namespace

TEST(Fit, RecoversExactQuadratic) {
    const auto d = ehdoe::doe::central_composite(2, {});
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) y[i] = truth(d.points.row(i));
    const ModelSpec model(2, ModelOrder::Quadratic);
    const FitResult f = fit_ols(model, d.points, y);
    EXPECT_NEAR(f.r_squared(), 1.0, 1e-12);
    EXPECT_NEAR(f.rmse(), 0.0, 1e-10);
    // Prediction at an unseen point is exact.
    EXPECT_NEAR(f.predict(Vector{0.37, -0.81}), truth(Vector{0.37, -0.81}), 1e-10);
}

TEST(Fit, CoefficientsMatchGroundTruth) {
    const auto d = ehdoe::doe::central_composite(2, {});
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) y[i] = truth(d.points.row(i));
    const FitResult f = fit_ols(ModelSpec(2, ModelOrder::Quadratic), d.points, y);
    // Terms: 1, x0, x1, x0x1, x0^2, x1^2 (conventional ordering).
    const auto& terms = f.model.terms();
    for (std::size_t t = 0; t < terms.size(); ++t) {
        double expect = 0.0;
        const auto& e = terms[t].exponents;
        if (e == std::vector<unsigned>{0, 0}) expect = 2.0;
        if (e == std::vector<unsigned>{1, 0}) expect = 1.0;
        if (e == std::vector<unsigned>{0, 1}) expect = -3.0;
        if (e == std::vector<unsigned>{1, 1}) expect = 0.5;
        if (e == std::vector<unsigned>{2, 0}) expect = 1.5;
        EXPECT_NEAR(f.coefficients[t], expect, 1e-10) << terms[t].to_string();
    }
}

TEST(Fit, LinearModelUnderfitsQuadraticData) {
    const auto d = ehdoe::doe::central_composite(2, {});
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) y[i] = truth(d.points.row(i));
    const FitResult lin = fit_ols(ModelSpec(2, ModelOrder::Linear), d.points, y);
    EXPECT_LT(lin.r_squared(), 0.99);
    EXPECT_GT(lin.sse, 0.1);
}

TEST(Fit, NoiseInflatesSigma2) {
    ehdoe::num::Rng rng = ehdoe::num::make_rng(5);
    const auto d = ehdoe::doe::latin_hypercube(60, 2, 9);
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) {
        y[i] = truth(d.points.row(i)) + ehdoe::num::normal(rng, 0.0, 0.2);
    }
    const FitResult f = fit_ols(ModelSpec(2, ModelOrder::Quadratic), d.points, y);
    EXPECT_NEAR(std::sqrt(f.sigma2), 0.2, 0.08);
    EXPECT_GT(f.r_squared(), 0.9);
    EXPECT_LT(f.adjusted_r_squared(), f.r_squared() + 1e-15);
}

TEST(Fit, Validation) {
    const ModelSpec model(2, ModelOrder::Quadratic);
    ehdoe::num::Matrix pts(3, 2);  // fewer runs than 6 terms
    std::vector<double> y(3, 0.0);
    EXPECT_THROW(fit_ols(model, pts, y), std::invalid_argument);
    ehdoe::num::Matrix ok(8, 2);
    EXPECT_THROW(fit_ols(model, ok, std::vector<double>(5, 0.0)), std::invalid_argument);
    // Degenerate design (all same point) is rank-deficient.
    std::vector<double> y8(8, 1.0);
    EXPECT_THROW(fit_ols(model, ok, y8), std::runtime_error);
}

TEST(ModelSpec, TermManipulation) {
    ModelSpec m(2, ModelOrder::Linear);
    EXPECT_EQ(m.num_terms(), 3u);
    const ModelSpec less = m.without_term(1);
    EXPECT_EQ(less.num_terms(), 2u);
    EXPECT_THROW(m.without_term(9), std::out_of_range);
    EXPECT_NE(m.describe().find("x0"), std::string::npos);
}

namespace {

std::uint64_t bits(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

// Seeded probe points over k factors: the first rows hold 0, -0.0, +-1,
// |x| > 1, subnormals and +-1e150 (whose cubes overflow) in every
// coordinate, the rest are uniform on [-2.5, 2.5].
ehdoe::num::Matrix probe_points(std::size_t k, std::size_t n, std::uint64_t seed) {
    const double specials[] = {0.0,  -0.0,   1.0,        -1.0,           1.75,   -2.5,
                               0.5,  -0.0,   0x1p-1060, -0x1.8p-1040, 1e150, -1e150};
    constexpr std::size_t kSpecials = sizeof specials / sizeof specials[0];
    ehdoe::num::Rng rng = ehdoe::num::make_rng(seed);
    ehdoe::num::Matrix pts(n, k);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
            pts(i, j) = i < kSpecials ? specials[(i + 3 * j) % kSpecials]
                                      : ehdoe::num::uniform(rng, -2.5, 2.5);
        }
    }
    return pts;
}

// A fit carrying only a model and its coefficients: all predict() reads.
FitResult fit_with(const ModelSpec& model, Vector beta) {
    return FitResult{model, std::move(beta), {}, {}, {}};
}

// Every term evaluated on its own, times its coefficient, summed in term
// order starting from 0.0: the reference the kernel replaced.
double row_dot_beta(const ModelSpec& model, const Vector& x, const Vector& beta) {
    double ref = 0.0;
    for (std::size_t j = 0; j < model.num_terms(); ++j) {
        ref += model.terms()[j].evaluate(x) * beta[j];
    }
    return ref;
}

// predict() and every block shape of predict_block() against the reference:
// 1..9 coefficient vectors, every block of 1..19 points and all 64, points
// packed or spaced apart.
void expect_predict_is_row_dot_beta(const ModelSpec& model, std::uint64_t seed) {
    ehdoe::num::Rng rng = ehdoe::num::make_rng(seed);
    std::vector<Vector> betas(9, Vector(model.num_terms()));
    for (Vector& beta : betas) {
        for (std::size_t j = 0; j < beta.size(); ++j) {
            beta[j] = ehdoe::num::uniform(rng, -40.0, 40.0);
        }
    }
    const FitResult fit = fit_with(model, betas[0]);
    const std::size_t k = model.dimension();
    const ehdoe::num::Matrix pts = probe_points(k, 64, seed + 1);
    const std::vector<double> batch = fit.predict(pts);
    ASSERT_EQ(batch.size(), pts.rows());
    std::vector<std::vector<double>> ref(pts.rows(), std::vector<double>(betas.size()));
    for (std::size_t i = 0; i < pts.rows(); ++i) {
        const Vector x = pts.row(i);
        for (std::size_t c = 0; c < betas.size(); ++c) ref[i][c] = row_dot_beta(model, x, betas[c]);
        EXPECT_EQ(bits(fit.predict(x)), bits(ref[i][0])) << model.describe() << " at row " << i;
        EXPECT_EQ(bits(batch[i]), bits(ref[i][0])) << model.describe() << " at row " << i;
    }

    // The same points two columns apart, so a block reads with a stride.
    const std::size_t stride = k + 2;
    std::vector<double> spaced(pts.rows() * stride, 0.0);
    for (std::size_t i = 0; i < pts.rows(); ++i) {
        std::copy(pts.row_ptr(i), pts.row_ptr(i) + k, spaced.begin() + i * stride);
    }
    std::vector<const double*> coefficients;
    for (const Vector& beta : betas) coefficients.push_back(beta.data());
    // Each count from a different first row, so the special rows land in
    // every pass width and position.
    std::vector<std::pair<std::size_t, std::size_t>> blocks{{0, 64}};
    for (std::size_t count = 1; count <= 19; ++count) blocks.emplace_back((5 * count) % 29, count);
    for (std::size_t m = 1; m <= betas.size(); ++m) {
        for (const auto& [first, count] : blocks) {
            std::vector<double> out(count * m);
            model.predict_block(spaced.data() + first * stride, count, stride,
                                coefficients.data(), m, out.data());
            for (std::size_t i = 0; i < count; ++i) {
                for (std::size_t c = 0; c < m; ++c) {
                    EXPECT_EQ(bits(out[i * m + c]), bits(ref[first + i][c]))
                        << model.describe() << ": " << count << " points from row " << first
                        << " by " << m << " vectors, point " << i << " vector " << c;
                }
            }
        }
    }
}

}  // namespace

TEST(Predict, BitwiseEqualsTermOrderSumForEveryOrder) {
    for (std::size_t k : {1u, 2u, 3u, 6u}) {
        for (ModelOrder order : {ModelOrder::Linear, ModelOrder::Interaction,
                                 ModelOrder::Quadratic, ModelOrder::Cubic}) {
            expect_predict_is_row_dot_beta(ModelSpec(k, order), 100 + k);
        }
    }
}

TEST(Predict, BitwiseEqualsTermOrderSumForEditedModels) {
    const ModelSpec quad(3, ModelOrder::Quadratic);
    expect_predict_is_row_dot_beta(quad.without_term(0), 7);  // no intercept
    expect_predict_is_row_dot_beta(quad.without_term(9), 8);
    // Powers beyond the standard orders, leading and trailing.
    using ehdoe::num::Monomial;
    std::vector<Monomial> wide = quad.terms();
    wide.emplace_back(std::vector<unsigned>{2, 0, 2});
    wide.emplace_back(std::vector<unsigned>{0, 5, 0});
    wide.emplace_back(std::vector<unsigned>{1, 3, 0});
    wide.emplace_back(std::vector<unsigned>{4, 1, 1});
    wide.emplace_back(std::vector<unsigned>{3, 0, 1});
    expect_predict_is_row_dot_beta(ModelSpec(3, std::move(wide)), 9);
    const ModelSpec only_constant(2, std::vector<Monomial>{Monomial(2)});
    expect_predict_is_row_dot_beta(only_constant, 10);
}

TEST(Predict, BitwiseEqualsTermOrderSumPastTheStackSlots) {
    // More extended-point slots than the kernel keeps on the stack: 70
    // coordinates, or 69 distinct trailing powers of x1.
    const ModelSpec wide_linear(70, ModelOrder::Linear);
    EXPECT_GT(wide_linear.num_slots(), ModelSpec::kStackSlots);
    expect_predict_is_row_dot_beta(wide_linear, 11);
    using ehdoe::num::Monomial;
    std::vector<Monomial> powers{Monomial(2)};
    for (unsigned e = 2; e <= 70; ++e) powers.push_back(Monomial(std::vector<unsigned>{1, e}));
    const ModelSpec many_powers(2, std::move(powers));
    EXPECT_GT(many_powers.num_slots(), ModelSpec::kStackSlots);
    expect_predict_is_row_dot_beta(many_powers, 12);
}

TEST(Predict, RejectsWrongShapes) {
    const ModelSpec model(3, ModelOrder::Quadratic);
    const FitResult fit = fit_with(model, Vector(model.num_terms(), 1.0));
    EXPECT_THROW(fit.predict(Vector{0.1, 0.2}), std::invalid_argument);
    EXPECT_THROW(fit.predict(Vector{0.1, 0.2, 0.3, 0.4}), std::invalid_argument);
    EXPECT_THROW(fit.predict(ehdoe::num::Matrix(2, 4)), std::invalid_argument);
    const FitResult short_beta = fit_with(model, Vector(model.num_terms() - 1, 1.0));
    EXPECT_THROW(short_beta.predict(Vector{0.1, 0.2, 0.3}), std::invalid_argument);
    EXPECT_THROW(short_beta.predict(ehdoe::num::Matrix(2, 3)), std::invalid_argument);
}

// Property: fit is exact whenever the model contains the truth across orders.
class OrderP : public ::testing::TestWithParam<ModelOrder> {};

TEST_P(OrderP, ExactWhenModelContainsTruth) {
    // Truth is linear: every order from Linear upward reproduces it.
    const auto d = ehdoe::doe::central_composite(3, {});
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) {
        const Vector x = d.points.row(i);
        y[i] = 1.0 - 2.0 * x[0] + 0.3 * x[2];
    }
    const FitResult f = fit_ols(ModelSpec(3, GetParam()), d.points, y);
    EXPECT_NEAR(f.rmse(), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Orders, OrderP,
                         ::testing::Values(ModelOrder::Linear, ModelOrder::Interaction,
                                           ModelOrder::Quadratic));
