// Matrix exponential and ZOH discretization tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harvester/harvester_system.hpp"
#include "numerics/expm.hpp"
#include "numerics/linalg.hpp"
#include "numerics/matrix.hpp"
#include "numerics/stats.hpp"
#include "sim/state_space.hpp"

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

/// The i-k-j product: each entry sums a(i, k) * b(k, j) from 0.0 over the
/// k with a(i, k) != 0, in ascending k.
Matrix ikj_product(const Matrix& a, const Matrix& b) {
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = a(i, k);
            if (aik == 0.0) continue;
            for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
        }
    }
    return c;
}

/// expm as the textbook steps on the whole matrix: the same scaling and
/// Padé(6,6) sums, a column-by-column solve of D F = N, and every power and
/// square an i-k-j product over all rows and all k.
Matrix reference_expm(const Matrix& a) {
    const std::size_t n = a.rows();
    const double norm = a.norm_inf();
    const int s = norm > 0.5 ? static_cast<int>(std::ceil(std::log2(norm / 0.5))) : 0;
    const Matrix as = a * std::ldexp(1.0, -s);
    const double c[7] = {1.0,         1.0 / 2.0,     5.0 / 44.0,     1.0 / 66.0,
                         1.0 / 792.0, 1.0 / 15840.0, 1.0 / 665280.0};
    Matrix ak = Matrix::identity(n);
    Matrix nmat = Matrix::identity(n) * c[0];
    Matrix dmat = nmat;
    double sign = 1.0;
    for (int k = 1; k <= 6; ++k) {
        ak = ikj_product(ak, as);
        sign = -sign;
        for (std::size_t e = 0; e < n * n; ++e) {
            nmat.data()[e] += ak.data()[e] * c[k];
            dmat.data()[e] += ak.data()[e] * (c[k] * sign);
        }
    }
    const LuFactor lu(dmat);
    Matrix f(n, n);
    for (std::size_t j = 0; j < n; ++j) f.set_col(j, lu.solve(nmat.col(j)));
    for (int i = 0; i < s; ++i) f = ikj_product(f, f);
    return f;
}

/// discretize_zoh through reference_expm of the full (n + m)-square
/// augmented matrix [A B; 0 0] * h.
Discretized reference_zoh(const Matrix& a, const Matrix& b, double h) {
    const std::size_t n = a.rows(), m = b.cols();
    Matrix blk(n + m, n + m);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) blk(i, j) = a(i, j) * h;
        for (std::size_t j = 0; j < m; ++j) blk(i, n + j) = b(i, j) * h;
    }
    const Matrix e = reference_expm(blk);
    Discretized out{Matrix(n, n), Matrix(n, m)};
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) out.ad(i, j) = e(i, j);
        for (std::size_t j = 0; j < m; ++j) out.bd(i, j) = e(i, n + j);
    }
    return out;
}

/// Entries whose bit patterns differ; a NaN matches any NaN.
std::size_t bit_mismatches(const Matrix& x, const Matrix& y) {
    if (x.rows() != y.rows() || x.cols() != y.cols()) return x.rows() * x.cols() + 1;
    std::size_t bad = 0;
    for (std::size_t e = 0; e < x.rows() * x.cols(); ++e) {
        const double u = x.data()[e], v = y.data()[e];
        if (std::isnan(u) || std::isnan(v)) {
            bad += std::isnan(u) != std::isnan(v);
        } else {
            bad += std::memcmp(&u, &v, sizeof u) != 0;
        }
    }
    return bad;
}

/// Every (A, B) that a PWL run of the harvester circuit assembles over 2 s
/// at h = 2e-4, tuned to and driven at `f_res`.
std::vector<std::pair<Matrix, Matrix>> pwl_run_segments(double f_res) {
    ehdoe::harvester::HarvesterCircuitParams p;
    p.storage_capacitance = 50e-6;
    ehdoe::harvester::HarvesterCircuit c(p);
    c.set_resonant_frequency(f_res);
    ehdoe::sim::PwlSystem sys = c.make_pwl_system();
    std::vector<std::pair<Matrix, Matrix>> assembled;
    sys.assemble = [inner = sys.assemble, &assembled](std::uint32_t seg, Matrix& a, Matrix& b) {
        inner(seg, a, b);
        assembled.emplace_back(a, b);
    };
    ehdoe::sim::PwlEngineOptions o;
    o.step = 2e-4;
    ehdoe::sim::PwlStateSpaceEngine engine(std::move(sys), o);
    engine.set_state(c.initial_state(0.5));
    const auto accel = [f_res](double t) { return 0.6 * std::sin(2.0 * M_PI * f_res * t); };
    engine.run(2.0, c.make_input(accel));
    return assembled;
}

/// rows x cols entries uniform in [-scale, scale), a quarter of them exact
/// zeros of either sign.
Matrix signed_zero_random(std::size_t rows, std::size_t cols, double scale, Rng& rng) {
    Matrix m(rows, cols);
    for (std::size_t e = 0; e < rows * cols; ++e) {
        const double u = uniform(rng, 0.0, 1.0);
        m.data()[e] = u < 0.125 ? 0.0 : u < 0.25 ? -0.0 : uniform(rng, -scale, scale);
    }
    return m;
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

TEST(Expm, NonFiniteEntryOrStepThrowsNormTooLarge) {
    // A NaN entry's row sum is NaN, which norm_inf's max dropped, so the
    // result was NaN without an error; a non-finite step makes non-finite
    // block entries. Each gets the infinite norm's error, wherever it sits.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const auto expect_norm_error = [](const auto& call, const std::string& what) {
        try {
            call();
            ADD_FAILURE() << what << ": no throw";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), "expm: matrix norm too large") << what;
        }
    };
    for (std::size_t e = 0; e < 9; ++e) {
        Matrix a{{-1.0, 0.5, 0.0}, {0.25, -2.0, 1.0}, {0.0, 0.0, 0.0}};
        a.data()[e] = nan;
        expect_norm_error([&] { expm(a); }, "expm, NaN at " + std::to_string(e));
    }
    const Matrix a{{-1.0, 0.5}, {0.25, -2.0}};
    const Matrix b{{1.0}, {0.0}};
    for (std::size_t e = 0; e < 4; ++e) {
        Matrix bad = a;
        bad.data()[e] = nan;
        expect_norm_error([&] { discretize_zoh(bad, b, 1e-3); }, "A NaN at " + std::to_string(e));
    }
    for (const double v : {nan, inf, -inf}) {
        Matrix bad = b;
        bad(1, 0) = v;
        expect_norm_error([&] { discretize_zoh(a, bad, 1e-3); }, "B entry " + std::to_string(v));
        expect_norm_error([&] { discretize_zoh(a, b, v); }, "step " + std::to_string(v));
        expect_norm_error([&] { discretize_zoh(Matrix(2, 2), Matrix(2, 1), v); },
                          "zero system, step " + std::to_string(v));
    }
}

TEST(DiscretizeZoh, MatchesTheFullAugmentedReferenceBitwise) {
    // discretize_zoh's Ad and Bd against reference_zoh, bit for bit (a NaN
    // matches any NaN): every segment a harvester PWL run assembles at two
    // tunings, then seeded [A B] with signed zeros and norms from 1e-4 to
    // 1e4, a zero system, a B with an all-zero column, an A whose last row
    // is zero (m + 1 trailing zero rows), and three systems whose squarings
    // overflow a square before the last: in Ad only, in Bd only (where the
    // full product's inf * +0 terms make Ad NaN), and in both.
    struct Case {
        Matrix a, b;
        double h;
        bool overflows = false;
    };
    std::vector<Case> cases;
    for (const double f_res : {62.0, 68.0}) {
        const auto segments = pwl_run_segments(f_res);
        EXPECT_GE(segments.size(), 20u) << f_res;
        for (const auto& [a, b] : segments) cases.push_back({a, b, 2e-4});
    }
    const std::size_t circuit_cases = cases.size();
    Rng rng = make_rng(38);
    const std::size_t sizes[][2] = {{1, 1}, {2, 1}, {3, 2}, {5, 3}, {8, 1}, {14, 3}};
    for (const auto& size : sizes) {
        for (const double scale : {1e-4, 0.3, 5.0, 1e3}) {
            const double h = uniform(rng, -1.0, 1.0);
            cases.push_back({signed_zero_random(size[0], size[0], scale, rng),
                             signed_zero_random(size[0], size[1], scale, rng), h});
        }
    }
    cases.push_back({Matrix(3, 3), Matrix(3, 2), 1.0});
    {
        Case c{signed_zero_random(6, 6, 2.0, rng), signed_zero_random(6, 3, 2.0, rng), 0.5};
        for (std::size_t i = 0; i < 6; ++i) c.b(i, 1) = i % 2 ? -0.0 : 0.0;
        cases.push_back(c);
        for (std::size_t j = 0; j < 6; ++j) c.a(5, j) = j % 2 ? 0.0 : -0.0;
        for (std::size_t j = 0; j < 3; ++j) c.b(5, j) = -0.0;
        cases.push_back(c);
    }
    cases.push_back({Matrix{{2000.0, 0.0}, {-0.0, -3.0}}, Matrix{{1e-300}, {0.5}}, 1.0, true});
    const Matrix b_large{{1e17, -0.0}, {1.0, 2.0}};
    cases.push_back({Matrix{{1400.0, 0.0}, {2.0, -1.0}}, b_large, 1.0, true});
    cases.push_back({Matrix{{2000.0, 1.0}, {-0.0, -3.0}}, Matrix{{1.0}, {0.5}}, 1.0, true});
    for (std::size_t k = 0; k < cases.size(); ++k) {
        const Case& c = cases[k];
        SCOPED_TRACE("case " + std::to_string(k) + (k < circuit_cases ? " (circuit)" : ""));
        const Discretized got = discretize_zoh(c.a, c.b, c.h);
        const Discretized want = reference_zoh(c.a, c.b, c.h);
        EXPECT_EQ(bit_mismatches(got.ad, want.ad), 0u);
        EXPECT_EQ(bit_mismatches(got.bd, want.bd), 0u);
        if (c.overflows) {
            bool nan = false;
            for (std::size_t e = 0; e < want.ad.rows() * want.ad.cols(); ++e)
                nan = nan || std::isnan(want.ad.data()[e]);
            EXPECT_TRUE(nan);
        }
    }
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
