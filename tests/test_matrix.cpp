// Unit tests for the dense Vector / Matrix layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "numerics/matrix.hpp"
#include "numerics/stats.hpp"

using namespace ehdoe::num;

namespace {

/// The product as an i-k-j loop that skips a's zero entries: each entry
/// sums its products from 0.0 in ascending k. multiply_into must keep
/// these bits.
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

/// Bit patterns of m, row-major: signed zeros and NaN payloads count.
std::vector<std::uint64_t> bits(const Matrix& m) {
    std::vector<std::uint64_t> out(m.rows() * m.cols());
    for (std::size_t e = 0; e < out.size(); ++e) std::memcpy(&out[e], m.data() + e, sizeof(double));
    return out;
}

/// Entries uniform in [-1, 1), a quarter of them exact zeros of either sign.
Matrix sparse_random(std::size_t rows, std::size_t cols, Rng& rng) {
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            const double u = uniform(rng, 0.0, 1.0);
            m(i, j) = u < 0.125 ? 0.0 : u < 0.25 ? -0.0 : uniform(rng, -1.0, 1.0);
        }
    }
    return m;
}

}  // namespace

TEST(Vector, ConstructionAndAccess) {
    Vector v(3);
    EXPECT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[0], 0.0);
    Vector w{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(w[2], 3.0);
    EXPECT_THROW(w.at(3), std::out_of_range);
}

TEST(Vector, Arithmetic) {
    Vector a{1.0, 2.0, 3.0};
    Vector b{4.0, 5.0, 6.0};
    Vector c = a + b;
    EXPECT_DOUBLE_EQ(c[0], 5.0);
    EXPECT_DOUBLE_EQ(c[2], 9.0);
    c -= a;
    EXPECT_TRUE(approx_equal(c, b, 1e-15));
    EXPECT_DOUBLE_EQ((2.0 * a)[1], 4.0);
    EXPECT_DOUBLE_EQ((a / 2.0)[0], 0.5);
    EXPECT_DOUBLE_EQ((-a)[2], -3.0);
}

TEST(Vector, ShapeMismatchThrows) {
    Vector a{1.0, 2.0};
    Vector b{1.0, 2.0, 3.0};
    EXPECT_THROW(a += b, std::invalid_argument);
    EXPECT_THROW(dot(a, b), std::invalid_argument);
}

TEST(Vector, NormsAndDot) {
    Vector v{3.0, 4.0};
    EXPECT_DOUBLE_EQ(v.norm(), 5.0);
    EXPECT_DOUBLE_EQ(v.norm_inf(), 4.0);
    EXPECT_DOUBLE_EQ(v.sum(), 7.0);
    EXPECT_DOUBLE_EQ(dot(v, v), 25.0);
    EXPECT_DOUBLE_EQ(Vector{}.norm_inf(), 0.0);
}

TEST(Vector, NormAvoidsOverflow) {
    Vector v{1e200, 1e200};
    EXPECT_TRUE(std::isfinite(v.norm()));
    EXPECT_NEAR(v.norm(), 1e200 * std::sqrt(2.0), 1e188);
}

TEST(Vector, Axpy) {
    Vector y{1.0, 1.0};
    Vector x{2.0, 3.0};
    y.axpy(2.0, x);
    EXPECT_DOUBLE_EQ(y[0], 5.0);
    EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, ConstructionIdentityDiag) {
    Matrix i3 = Matrix::identity(3);
    EXPECT_TRUE(i3.square());
    EXPECT_DOUBLE_EQ(i3(1, 1), 1.0);
    EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
    Matrix d = Matrix::diag(Vector{2.0, 3.0});
    EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, MultiplyKnown) {
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyIntoKeepsTheIkjSumsBitwise) {
    // Every entry of the product must equal the i-k-j loop's bit for bit,
    // for shapes from 1x1 up to 70 inner indices and for 9..33 output
    // columns. a and b hold signed zeros; one row of b holds +inf, -inf and
    // NaN (one per column), opposite a column of a that is zero in most
    // rows, so they reach some entries and are skipped for the others. The
    // leading half of the rows over the leading half of the terms must be
    // the i-k-j loop of those blocks, the other rows left as they were.
    struct Shape {
        std::size_t m, k, n;
    };
    std::vector<Shape> shapes = {{1, 1, 1}, {3, 5, 2}, {14, 14, 14}, {17, 17, 17}, {3, 70, 12}};
    for (std::size_t n = 9; n <= 33; ++n) shapes.push_back({5, 7, n});
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double specials[] = {kInf, -kInf, std::numeric_limits<double>::quiet_NaN(), 0.5};
    Rng rng = make_rng(2024);
    Matrix c;  // reused: multiply_into reshapes it to each product
    for (const Shape& s : shapes) {
        SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.k) + " * " +
                     std::to_string(s.k) + "x" + std::to_string(s.n));
        Matrix a = sparse_random(s.m, s.k, rng);
        Matrix b = sparse_random(s.k, s.n, rng);
        if (s.m == 14) {
            for (std::size_t k = 0; k < s.k; ++k) {
                a(3, k) = 0.0;
                a(9, k) = -0.0;
            }
        }
        if (s.k >= 5) {
            const std::size_t k0 = s.k / 2;
            for (std::size_t i = 0; i < s.m; ++i) a(i, k0) = i % 3 == 0 ? 0.75 : i % 2 ? 0.0 : -0.0;
            for (std::size_t j = 0; j < s.n; ++j) b(k0, j) = specials[j % 4];
        }
        const Matrix expected = ikj_product(a, b);
        multiply_into(a, b, s.m, s.k, c);
        EXPECT_EQ(bits(c), bits(expected));
        c.fill(std::numeric_limits<double>::quiet_NaN());  // same shape: nothing stale survives
        multiply_into(a, b, s.m, s.k, c);
        EXPECT_EQ(bits(c), bits(expected));
        EXPECT_EQ(bits(a * b), bits(expected));

        const std::size_t rows = (s.m + 1) / 2, inner = (s.k + 1) / 2;
        Matrix a_lead(rows, inner), b_lead(inner, s.n);
        for (std::size_t i = 0; i < rows; ++i)
            for (std::size_t k = 0; k < inner; ++k) a_lead(i, k) = a(i, k);
        for (std::size_t k = 0; k < inner; ++k)
            for (std::size_t j = 0; j < s.n; ++j) b_lead(k, j) = b(k, j);
        Matrix blocked = expected;
        const Matrix lead = ikj_product(a_lead, b_lead);
        for (std::size_t i = 0; i < rows; ++i)
            for (std::size_t j = 0; j < s.n; ++j) blocked(i, j) = lead(i, j);
        multiply_into(a, b, rows, inner, c);
        EXPECT_EQ(bits(c), bits(blocked));
    }
    const Matrix a(2, 3), b(3, 4);
    EXPECT_THROW(multiply_into(a, b, 3, 3, c), std::invalid_argument);
    EXPECT_THROW(multiply_into(a, b, 2, 4, c), std::invalid_argument);
}

TEST(Matrix, MatVec) {
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Vector x{1.0, 1.0};
    Vector y = a * x;
    EXPECT_DOUBLE_EQ(y[0], 3.0);
    EXPECT_DOUBLE_EQ(y[1], 7.0);
    EXPECT_THROW(a * Vector{1.0}, std::invalid_argument);
}

TEST(Matrix, TransposeAndAtB) {
    Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    Matrix at = a.transposed();
    EXPECT_EQ(at.rows(), 3u);
    EXPECT_DOUBLE_EQ(at(2, 1), 6.0);
    // a^T a two ways.
    Matrix direct = at * a;
    Matrix fused = mul_at_b(a, a);
    EXPECT_TRUE(approx_equal(direct, fused, 1e-14));
    Vector x{1.0, -1.0};
    EXPECT_TRUE(approx_equal(mul_at_x(a, x), at * x, 1e-14));
}

TEST(Matrix, RowColOps) {
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_TRUE(approx_equal(m.row(1), Vector{3.0, 4.0}, 0.0));
    EXPECT_TRUE(approx_equal(m.col(0), Vector{1.0, 3.0}, 0.0));
    m.set_row(0, Vector{9.0, 8.0});
    EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
    m.set_col(1, Vector{7.0, 6.0});
    EXPECT_DOUBLE_EQ(m(1, 1), 6.0);
    m.swap_rows(0, 1);
    EXPECT_DOUBLE_EQ(m(0, 0), 3.0);
}

TEST(Matrix, Norms) {
    Matrix m{{1.0, -2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(m.norm_inf(), 7.0);       // max row sum of abs
    EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
    EXPECT_NEAR(m.norm_fro(), std::sqrt(30.0), 1e-14);
}

TEST(Matrix, StreamOutput) {
    std::ostringstream os;
    os << Matrix{{1.0, 2.0}};
    EXPECT_NE(os.str().find("1"), std::string::npos);
    std::ostringstream ov;
    ov << Vector{1.0, 2.0};
    EXPECT_EQ(ov.str(), "[1, 2]");
}

// Property sweep: (A B)^T == B^T A^T for random shapes.
class MatrixShapeP : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MatrixShapeP, TransposeOfProduct) {
    const auto [r, c] = GetParam();
    Matrix a(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
    Matrix b(static_cast<std::size_t>(c), static_cast<std::size_t>(r));
    // Deterministic fill.
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = std::sin(1.0 + 3.0 * i + 7.0 * j);
    for (std::size_t i = 0; i < b.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = std::cos(2.0 + 5.0 * i + j);
    const Matrix lhs = (a * b).transposed();
    const Matrix rhs = b.transposed() * a.transposed();
    EXPECT_TRUE(approx_equal(lhs, rhs, 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatrixShapeP,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 3}, std::pair{3, 2},
                                           std::pair{5, 5}, std::pair{7, 4}, std::pair{1, 9},
                                           std::pair{9, 1}, std::pair{12, 12}));
