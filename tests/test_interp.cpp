// Interpolation tests: linear tables and cubic splines.
#include <gtest/gtest.h>

#include <cmath>

#include "numerics/interp.hpp"

using namespace ehdoe::num;

TEST(LinearTable, InterpolatesAndClamps) {
    LinearTable t({0.0, 1.0, 2.0}, {0.0, 10.0, 30.0});
    EXPECT_DOUBLE_EQ(t(0.5), 5.0);
    EXPECT_DOUBLE_EQ(t(1.5), 20.0);
    EXPECT_DOUBLE_EQ(t(-5.0), 0.0);   // clamped
    EXPECT_DOUBLE_EQ(t(9.0), 30.0);   // clamped
}

TEST(LinearTable, ValidatesInput) {
    EXPECT_THROW(LinearTable({1.0}, {1.0}), std::invalid_argument);
    EXPECT_THROW(LinearTable({1.0, 1.0}, {0.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(LinearTable({0.0, 1.0}, {0.0}), std::invalid_argument);
}

TEST(CubicSpline, PassesThroughKnots) {
    std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
    std::vector<double> ys{1.0, 2.0, 0.0, 5.0};
    CubicSpline s(xs, ys);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_NEAR(s(xs[i]), ys[i], 1e-12);
    }
}

TEST(CubicSpline, TwoKnotsIsChord) {
    CubicSpline s({0.0, 2.0}, {0.0, 4.0});
    EXPECT_NEAR(s(1.0), 2.0, 1e-12);
}

TEST(CubicSpline, NaturalBoundaryConditions) {
    // The second difference a step inside either end is s'' there, which
    // tends to 0 (the interior knots' s'' of this spline is 2.4).
    CubicSpline s({0.0, 1.0, 2.0, 3.0}, {0.0, 1.0, 4.0, 9.0});
    const double h = 1e-3;
    EXPECT_NEAR((s(0.0) - 2.0 * s(h) + s(2.0 * h)) / (h * h), 0.0, 0.01);
    EXPECT_NEAR((s(3.0) - 2.0 * s(3.0 - h) + s(3.0 - 2.0 * h)) / (h * h), 0.0, 0.01);
}

TEST(CubicSpline, ApproximatesSmoothFunction) {
    // Dense knots on sin(x): interior error tiny.
    std::vector<double> xs, ys;
    for (int i = 0; i <= 20; ++i) {
        const double x = i * 0.1;
        xs.push_back(x);
        ys.push_back(std::sin(x));
    }
    CubicSpline s(xs, ys);
    for (double x = 0.3; x < 1.7; x += 0.07) {
        EXPECT_NEAR(s(x), std::sin(x), 1e-5);
    }
}

TEST(CubicSpline, ContinuousFirstDerivativeAtKnots) {
    // One-sided slopes on either side of a knot agree to O(h s'').
    CubicSpline s({0.0, 1.0, 2.0, 3.0}, {0.0, 2.0, -1.0, 3.0});
    const double h = 1e-5;
    for (double knot : {1.0, 2.0}) {
        EXPECT_NEAR((s(knot) - s(knot - h)) / h, (s(knot + h) - s(knot)) / h, 1e-3);
    }
}
