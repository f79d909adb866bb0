// Monomial / model-basis machinery tests.
#include <gtest/gtest.h>

#include <cmath>

#include "numerics/polynomial.hpp"

using namespace ehdoe::num;

TEST(Monomial, EvaluateAndDegree) {
    Monomial m(std::vector<unsigned>{1, 0, 2});  // x0 * x2^2
    EXPECT_EQ(m.degree(), 3u);
    EXPECT_FALSE(m.is_constant());
    EXPECT_DOUBLE_EQ(m.evaluate(Vector{2.0, 5.0, 3.0}), 18.0);
}

TEST(Monomial, ConstantTerm) {
    Monomial c(3);
    EXPECT_TRUE(c.is_constant());
    EXPECT_DOUBLE_EQ(c.evaluate(Vector{9.0, 9.0, 9.0}), 1.0);
    EXPECT_EQ(c.to_string(), "1");
}

TEST(Monomial, FirstDerivative) {
    Monomial m(std::vector<unsigned>{2, 1});  // x0^2 x1
    const Vector x{3.0, 4.0};
    EXPECT_DOUBLE_EQ(m.derivative(x, 0), 2.0 * 3.0 * 4.0);  // 2 x0 x1
    EXPECT_DOUBLE_EQ(m.derivative(x, 1), 9.0);              // x0^2
}

TEST(Monomial, SecondDerivatives) {
    Monomial m(std::vector<unsigned>{2, 1});
    const Vector x{3.0, 4.0};
    EXPECT_DOUBLE_EQ(m.second_derivative(x, 0, 0), 2.0 * 4.0);  // 2 x1
    EXPECT_DOUBLE_EQ(m.second_derivative(x, 0, 1), 2.0 * 3.0);  // 2 x0
    EXPECT_DOUBLE_EQ(m.second_derivative(x, 1, 1), 0.0);
}

TEST(Monomial, DerivativeOfAbsentVariableIsZero) {
    Monomial m(std::vector<unsigned>{0, 3});
    EXPECT_DOUBLE_EQ(m.derivative(Vector{1.0, 2.0}, 0), 0.0);
}

TEST(Monomial, ToStringWithNames) {
    Monomial m(std::vector<unsigned>{1, 0, 2});
    EXPECT_EQ(m.to_string({"a", "b", "c"}), "a*c^2");
    EXPECT_EQ(m.to_string(), "x0*x2^2");
}

TEST(Bases, LinearBasisSize) {
    const auto b = linear_basis(4);
    EXPECT_EQ(b.size(), 5u);
    EXPECT_TRUE(b[0].is_constant());
}

TEST(Bases, InteractionBasisSize) {
    // 1 + k + k(k-1)/2.
    EXPECT_EQ(interaction_basis(4).size(), 1u + 4u + 6u);
}

TEST(Bases, QuadraticBasisSize) {
    // 1 + 2k + k(k-1)/2.
    EXPECT_EQ(quadratic_basis(3).size(), 10u);
    EXPECT_EQ(quadratic_basis(6).size(), 28u);
}

TEST(Bases, UpToDegreeCountsBinomial) {
    // #monomials of degree <= d in k vars = C(k+d, d).
    EXPECT_EQ(monomials_up_to_degree(3, 2).size(), 10u);   // C(5,2)
    EXPECT_EQ(monomials_up_to_degree(2, 3).size(), 10u);   // C(5,3)
    EXPECT_EQ(monomials_up_to_degree(4, 1).size(), 5u);
}

TEST(Bases, OrderingStartsWithConstantThenLinear) {
    const auto b = monomials_up_to_degree(2, 2);
    EXPECT_TRUE(b[0].is_constant());
    EXPECT_EQ(b[1].degree(), 1u);
    EXPECT_EQ(b[2].degree(), 1u);
    EXPECT_EQ(b[3].degree(), 2u);
}

TEST(ModelMatrix, RowsMatchEvaluations) {
    const auto terms = quadratic_basis(2);
    Matrix pts{{0.5, -1.0}, {1.0, 1.0}};
    const Matrix m = model_matrix(terms, pts);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), terms.size());
    for (std::size_t j = 0; j < terms.size(); ++j) {
        EXPECT_DOUBLE_EQ(m(0, j), terms[j].evaluate(pts.row(0)));
    }
}

TEST(IntPow, IsBinaryPowering) {
    // The exact product sequence: squares of x, multiplied in per set bit.
    const double x = -1.3;
    const double x2 = x * x, x4 = x2 * x2;
    EXPECT_EQ(int_pow(x, 0), 1.0);
    EXPECT_EQ(int_pow(x, 1), x);
    EXPECT_EQ(int_pow(x, 2), x2);
    EXPECT_EQ(int_pow(x, 3), x * x2);
    EXPECT_EQ(int_pow(x, 4), x4);
    EXPECT_EQ(int_pow(x, 5), x * x4);
    EXPECT_EQ(int_pow(x, 7), x * x2 * x4);
}

TEST(Monomial, DimensionMismatchThrows) {
    Monomial m(std::vector<unsigned>{1, 1});
    EXPECT_THROW(m.evaluate(Vector{1.0}), std::invalid_argument);
    EXPECT_THROW(m.derivative(Vector{1.0, 2.0}, 5), std::out_of_range);
}

// Property: derivative consistency with finite differences.
class MonomialFdP : public ::testing::TestWithParam<int> {};

TEST_P(MonomialFdP, DerivativeMatchesFiniteDifference) {
    const auto terms = monomials_up_to_degree(3, 3);
    const Vector x{0.4, -0.6, 0.8};
    const double h = 1e-6;
    const std::size_t j = static_cast<std::size_t>(GetParam());
    for (const auto& m : terms) {
        Vector xp = x, xm = x;
        xp[j] += h;
        xm[j] -= h;
        const double fd = (m.evaluate(xp) - m.evaluate(xm)) / (2.0 * h);
        EXPECT_NEAR(m.derivative(x, j), fd, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Vars, MonomialFdP, ::testing::Values(0, 1, 2));
