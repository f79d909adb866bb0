// Matrix exponential and ZOH discretization tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "numerics/expm.hpp"
#include "numerics/matrix.hpp"

using namespace ehdoe::num;

namespace {

std::string hex(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/// FNV-1a over the bit patterns of `m`, row-major.
std::uint64_t bits_digest(const Matrix& m) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < m.rows() * m.cols(); ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, m.data() + i, sizeof bits);
        for (int k = 0; k < 8; ++k) {
            h ^= (bits >> (8 * k)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

}  // namespace

TEST(Expm, ZeroMatrixGivesIdentity) {
    EXPECT_TRUE(approx_equal(expm(Matrix(3, 3)), Matrix::identity(3), 1e-14));
}

TEST(Expm, DiagonalMatrix) {
    const Matrix e = expm(Matrix::diag(Vector{1.0, -2.0, 0.5}));
    EXPECT_NEAR(e(0, 0), std::exp(1.0), 1e-12);
    EXPECT_NEAR(e(1, 1), std::exp(-2.0), 1e-12);
    EXPECT_NEAR(e(2, 2), std::exp(0.5), 1e-12);
    EXPECT_NEAR(e(0, 1), 0.0, 1e-13);
}

TEST(Expm, NilpotentExact) {
    // exp([[0,1],[0,0]]) = [[1,1],[0,1]] exactly.
    Matrix n{{0.0, 1.0}, {0.0, 0.0}};
    const Matrix e = expm(n);
    EXPECT_NEAR(e(0, 0), 1.0, 1e-14);
    EXPECT_NEAR(e(0, 1), 1.0, 1e-14);
    EXPECT_NEAR(e(1, 0), 0.0, 1e-14);
    EXPECT_NEAR(e(1, 1), 1.0, 1e-14);
}

TEST(Expm, RotationMatrix) {
    // exp([[0,-t],[t,0]]) = rotation by t.
    const double t = 1.3;
    Matrix a{{0.0, -t}, {t, 0.0}};
    const Matrix e = expm(a);
    EXPECT_NEAR(e(0, 0), std::cos(t), 1e-12);
    EXPECT_NEAR(e(0, 1), -std::sin(t), 1e-12);
    EXPECT_NEAR(e(1, 0), std::sin(t), 1e-12);
}

TEST(Expm, LargeNormViaScaling) {
    Matrix a{{0.0, -40.0}, {40.0, 0.0}};
    const Matrix e = expm(a);
    EXPECT_NEAR(e(0, 0), std::cos(40.0), 1e-9);
    EXPECT_NEAR(e(1, 0), std::sin(40.0), 1e-9);
}

TEST(Expm, GroupProperty) {
    Matrix a{{0.1, 0.3}, {-0.2, 0.4}};
    const Matrix e1 = expm(a);
    const Matrix ehalf = expm(a * 0.5);
    EXPECT_TRUE(approx_equal(ehalf * ehalf, e1, 1e-12));
}

TEST(Expm, GoldenWithSignedZerosIsBitwiseStable) {
    // A matrix with +0.0 and -0.0 entries and an all-zero last row, as in
    // the augmented [A B; 0 0] of discretize_zoh, once with 7 squarings and
    // once scaled below the squaring threshold: every bit, signed zeros
    // included, is pinned.
    const Matrix a{{-1.5, 0.25, -0.0, 3.0},
                   {0.0, -40.0, 0.5, -0.0},
                   {0.125, -0.0, -3.0, 1.5},
                   {-0.0, 0.0, -0.0, 0.0}};
    const Matrix e1 = expm(a);
    EXPECT_EQ(bits_digest(e1), 0xd7efb8945c59c670ull);
    EXPECT_EQ(hex(e1(0, 0)), hex(0x1.c90717e7de0f1p-3));
    EXPECT_EQ(hex(e1(0, 3)), hex(0x1.8ded3b5e1de6ap+0));
    const Matrix e2 = expm(a * 1e-3);
    EXPECT_EQ(bits_digest(e2), 0x8cd9d429234b3009ull);
    EXPECT_EQ(hex(e2(0, 0)), hex(0x1.ff3b8a14fb022p-1));
    EXPECT_EQ(hex(e2(0, 3)), hex(0x1.88ebd6594524cp-9));
    for (const Matrix* e : {&e1, &e2}) {
        for (std::size_t i = 0; i < 16; ++i) {
            if (e->data()[i] == 0.0) {
                EXPECT_FALSE(std::signbit(e->data()[i])) << i;
            }
        }
    }
}

TEST(Expm, NonSquareThrows) { EXPECT_THROW(expm(Matrix(2, 3)), std::invalid_argument); }

TEST(Expm, InfiniteNormThrowsNormTooLarge) {
    // An infinite norm made the squaring count ceil(log2(inf)), cast to int
    // (undefined); a finite norm past DBL_MAX / 2 overflows norm / 0.5 the
    // same way. Both get the error a norm above 2^60 gets.
    const double inf = std::numeric_limits<double>::infinity();
    for (const double big : {inf, -inf, 1.5e308, 0x1p62}) {
        Matrix a{{0.0, 1.0}, {big, 0.0}};
        EXPECT_THROW(expm(a), std::runtime_error) << big;
        EXPECT_THROW(discretize_zoh(a, Matrix(2, 1), 1.0), std::runtime_error) << big;
    }
    EXPECT_NO_THROW(expm(Matrix{{0.0, 1.0}, {0x1p59, 0.0}}));
}

TEST(DiscretizeZoh, MatchesAnalyticRc) {
    // RC circuit: v' = -(1/RC) v + (1/RC) u. Exact: vd = e^{-h/RC},
    // bd = 1 - e^{-h/RC}.
    const double tau = 1e-3;
    Matrix a{{-1.0 / tau}};
    Matrix b{{1.0 / tau}};
    const double h = 0.4e-3;
    const Discretized d = discretize_zoh(a, b, h);
    EXPECT_NEAR(d.ad(0, 0), std::exp(-h / tau), 1e-12);
    EXPECT_NEAR(d.bd(0, 0), 1.0 - std::exp(-h / tau), 1e-12);
}

TEST(DiscretizeZoh, SingularAHandled) {
    // Pure integrator: x' = u. Ad = 1, Bd = h.
    Matrix a{{0.0}};
    Matrix b{{1.0}};
    const Discretized d = discretize_zoh(a, b, 0.25);
    EXPECT_NEAR(d.ad(0, 0), 1.0, 1e-14);
    EXPECT_NEAR(d.bd(0, 0), 0.25, 1e-14);
}

TEST(DiscretizeZoh, DoubleIntegrator) {
    // x1' = x2, x2' = u: Ad = [[1,h],[0,1]], Bd = [h^2/2, h].
    Matrix a{{0.0, 1.0}, {0.0, 0.0}};
    Matrix b(2, 1);
    b(1, 0) = 1.0;
    const double h = 0.1;
    const Discretized d = discretize_zoh(a, b, h);
    EXPECT_NEAR(d.ad(0, 1), h, 1e-14);
    EXPECT_NEAR(d.bd(0, 0), 0.5 * h * h, 1e-14);
    EXPECT_NEAR(d.bd(1, 0), h, 1e-14);
}

// Property: stepping a stable 2nd-order system with the ZOH pair converges to
// the DC gain for constant input.
class ZohStepP : public ::testing::TestWithParam<double> {};

TEST_P(ZohStepP, ConvergesToDcGain) {
    const double h = GetParam();
    const double wn = 50.0, zeta = 0.3;
    Matrix a{{0.0, 1.0}, {-wn * wn, -2.0 * zeta * wn}};
    Matrix b(2, 1);
    b(1, 0) = wn * wn;  // DC gain 1
    const Discretized d = discretize_zoh(a, b, h);
    Vector x(2);
    Vector u{1.0};
    for (int i = 0; i < 20000; ++i) {
        x = d.ad * x + d.bd * u;
    }
    EXPECT_NEAR(x[0], 1.0, 1e-6);
    EXPECT_NEAR(x[1], 0.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Steps, ZohStepP, ::testing::Values(1e-4, 5e-4, 2e-3, 1e-2));
