// Unit + property tests for the dense factorizations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "numerics/linalg.hpp"
#include "numerics/stats.hpp"

using namespace ehdoe::num;

namespace {

Matrix random_matrix(std::size_t n, Rng& rng, double scale = 1.0) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) m(i, j) = uniform(rng, -scale, scale);
    return m;
}

Matrix random_spd(std::size_t n, Rng& rng) {
    Matrix a = random_matrix(n, rng);
    Matrix spd = mul_at_b(a, a);
    for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
    return spd;
}

/// Bit patterns of m, row-major: signed zeros and NaN payloads count.
std::vector<std::uint64_t> bits(const Matrix& m) {
    std::vector<std::uint64_t> out(m.rows() * m.cols());
    for (std::size_t e = 0; e < out.size(); ++e) std::memcpy(&out[e], m.data() + e, sizeof(double));
    return out;
}

/// One solve(Vector) per column of b: the substitution every column of
/// solve(Matrix) must reproduce bit for bit.
Matrix column_solves(const LuFactor& lu, const Matrix& b) {
    Matrix x(b.rows(), b.cols());
    for (std::size_t j = 0; j < b.cols(); ++j) x.set_col(j, lu.solve(b.col(j)));
    return x;
}

}  // namespace

TEST(Lu, SolvesKnownSystem) {
    Matrix a{{2.0, 1.0}, {1.0, 3.0}};
    Vector b{3.0, 5.0};
    Vector x = LuFactor(a).solve(b);
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, SingularThrows) {
    Matrix a{{1.0, 2.0}, {2.0, 4.0}};
    EXPECT_THROW(LuFactor{a}, std::runtime_error);
}

TEST(Lu, NonSquareThrows) {
    Matrix a(2, 3);
    EXPECT_THROW(LuFactor{a}, std::invalid_argument);
}

TEST(Lu, InverseRoundTrip) {
    Rng rng = make_rng(7);
    const Matrix a = random_spd(5, rng);
    const Matrix inv = LuFactor(a).inverse();
    EXPECT_TRUE(approx_equal(a * inv, Matrix::identity(5), 1e-10));
}

TEST(Lu, MatrixRhsSolve) {
    Rng rng = make_rng(8);
    const Matrix a = random_spd(4, rng);
    const Matrix b = random_matrix(4, rng);
    const Matrix x = LuFactor(a).solve(b);
    EXPECT_TRUE(approx_equal(a * x, b, 1e-9));
}

TEST(Lu, MatrixSolveAndInverseMatchColumnSolvesBitwise) {
    // solve(Matrix) with 1, 3, 17 and 40 right-hand sides, and inverse(),
    // against one solve(Vector) per column, bit for bit. A zero leading
    // entry forces a row swap at the first pivot, and random entries swap
    // more rows after it.
    Rng rng = make_rng(41);
    for (std::size_t n : {3u, 17u}) {
        Matrix a = random_matrix(n, rng);
        a(0, 0) = 0.0;
        const LuFactor lu(a);
        for (std::size_t cols : {1u, 3u, 17u, 40u}) {
            SCOPED_TRACE(std::to_string(n) + "x" + std::to_string(n) + " with " +
                         std::to_string(cols) + " columns");
            Matrix b(n, cols);
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < cols; ++j) b(i, j) = uniform(rng, -3.0, 3.0);
            b(n - 1, 0) = -0.0;
            EXPECT_EQ(bits(lu.solve(b)), bits(column_solves(lu, b)));
        }
        EXPECT_EQ(bits(lu.inverse()), bits(column_solves(lu, Matrix::identity(n))));
    }
}

TEST(Cholesky, LogDeterminant) {
    Matrix a{{4.0, 2.0}, {2.0, 5.0}};  // det 16
    EXPECT_NEAR(CholeskyFactor(a).log_determinant(), std::log(16.0), 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
    Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
    EXPECT_THROW(CholeskyFactor{a}, std::runtime_error);
}

TEST(Qr, LeastSquaresLine) {
    // Fit y = 1 + 2x through noise-free points: exact recovery.
    Matrix x(4, 2);
    Vector y(4);
    for (std::size_t i = 0; i < 4; ++i) {
        const double xi = static_cast<double>(i);
        x(i, 0) = 1.0;
        x(i, 1) = xi;
        y[i] = 1.0 + 2.0 * xi;
    }
    Vector beta = QrFactor(x).solve(y);
    EXPECT_NEAR(beta[0], 1.0, 1e-12);
    EXPECT_NEAR(beta[1], 2.0, 1e-12);
}

TEST(Qr, RankDetection) {
    Matrix a(4, 3);
    for (std::size_t i = 0; i < 4; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = static_cast<double>(i);
        a(i, 2) = 2.0 * static_cast<double>(i);  // collinear with column 1
    }
    QrFactor qr(a);
    EXPECT_EQ(qr.rank(1e-10), 2u);
    Vector y(4, 1.0);
    EXPECT_THROW(qr.solve(y), std::runtime_error);
}

TEST(Qr, RequiresTallMatrix) {
    Matrix a(2, 3);
    EXPECT_THROW(QrFactor{a}, std::invalid_argument);
}

TEST(Eigen, DiagonalMatrix) {
    const SymmetricEigen e = eigen_symmetric(Matrix::diag(Vector{3.0, 1.0, 2.0}));
    EXPECT_NEAR(e.eigenvalues[0], 1.0, 1e-12);
    EXPECT_NEAR(e.eigenvalues[1], 2.0, 1e-12);
    EXPECT_NEAR(e.eigenvalues[2], 3.0, 1e-12);
}

TEST(Eigen, Known2x2) {
    Matrix a{{2.0, 1.0}, {1.0, 2.0}};  // eigenvalues 1, 3
    const SymmetricEigen e = eigen_symmetric(a);
    EXPECT_NEAR(e.eigenvalues[0], 1.0, 1e-12);
    EXPECT_NEAR(e.eigenvalues[1], 3.0, 1e-12);
}

TEST(Eigen, ReconstructsMatrix) {
    Rng rng = make_rng(17);
    const Matrix a = random_spd(6, rng);
    const SymmetricEigen e = eigen_symmetric(a);
    // V diag(w) V^T == A.
    const Matrix vd = e.eigenvectors * Matrix::diag(e.eigenvalues);
    const Matrix rec = vd * e.eigenvectors.transposed();
    EXPECT_TRUE(approx_equal(rec, a, 1e-9));
    // Eigenvectors orthonormal.
    EXPECT_TRUE(approx_equal(mul_at_b(e.eigenvectors, e.eigenvectors), Matrix::identity(6), 1e-10));
}

// Property sweep: LU round-trips Ax=b across sizes.
class LinalgSizeP : public ::testing::TestWithParam<int> {};

TEST_P(LinalgSizeP, LuSolveResidualSmall) {
    const auto n = static_cast<std::size_t>(GetParam());
    Rng rng = make_rng(100 + GetParam());
    const Matrix a = random_spd(n, rng);
    Vector b(n);
    for (auto& v : b) v = uniform(rng, -2.0, 2.0);
    const Vector x = LuFactor(a).solve(b);
    EXPECT_LT((a * x - b).norm_inf(), 1e-8 * (1.0 + b.norm_inf()));
}

TEST_P(LinalgSizeP, QrLeastSquaresMatchesNormalEquations) {
    const auto n = static_cast<std::size_t>(GetParam());
    Rng rng = make_rng(200 + GetParam());
    Matrix x(2 * n, n);
    Vector y(2 * n);
    for (std::size_t i = 0; i < x.rows(); ++i) {
        for (std::size_t j = 0; j < n; ++j) x(i, j) = uniform(rng, -1.0, 1.0);
        y[i] = uniform(rng, -1.0, 1.0);
    }
    const Vector via_qr = QrFactor(x).solve(y);
    const Vector via_ne = LuFactor(mul_at_b(x, x)).solve(mul_at_x(x, y));
    EXPECT_TRUE(approx_equal(via_qr, via_ne, 1e-7));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LinalgSizeP, ::testing::Values(1, 2, 3, 5, 8, 13, 20));
