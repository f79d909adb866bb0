// ehdoe/numerics/polynomial.hpp
//
// Multi-index monomial machinery for response-surface models. An RSM term
// like x1 * x3^2 is represented as the exponent multi-index (1,0,2,...);
// a polynomial model is an ordered set of such terms plus coefficients.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "numerics/matrix.hpp"

namespace ehdoe::num {

/// Exponent multi-index of a single monomial over k variables.
struct Monomial {
    std::vector<unsigned> exponents;

    explicit Monomial(std::size_t k) : exponents(k, 0) {}
    explicit Monomial(std::vector<unsigned> e) : exponents(std::move(e)) {}

    std::size_t variables() const { return exponents.size(); }
    /// Total degree (sum of exponents).
    unsigned degree() const;
    /// true for the constant term.
    bool is_constant() const { return degree() == 0; }
    /// Evaluate at point `x` (x.size() == variables()).
    double evaluate(const Vector& x) const;
    /// d/dx_j of the monomial evaluated at x.
    double derivative(const Vector& x, std::size_t j) const;
    /// d2/dx_j dx_l of the monomial evaluated at x.
    double second_derivative(const Vector& x, std::size_t j, std::size_t l) const;

    /// Human-readable form like "x0*x2^2" with user variable names.
    std::string to_string(const std::vector<std::string>& names = {}) const;

    bool operator==(const Monomial& rhs) const { return exponents == rhs.exponents; }
};

/// All monomials over `k` variables of total degree <= `max_degree`,
/// ordered by (degree, lexicographic). Degree 2, k factors gives the full
/// quadratic RSM basis: 1, x_i, x_i x_j, x_i^2.
std::vector<Monomial> monomials_up_to_degree(std::size_t k, unsigned max_degree);

/// Linear main-effects basis: 1, x_1 ... x_k.
std::vector<Monomial> linear_basis(std::size_t k);

/// Linear + all two-factor interactions (no pure quadratics).
std::vector<Monomial> interaction_basis(std::size_t k);

/// Full quadratic basis (the standard second-order RSM model).
std::vector<Monomial> quadratic_basis(std::size_t k);

/// x^e by binary powering, the power Monomial::evaluate multiplies in per
/// variable (int_pow(x, 0) == 1, int_pow(x, 1) == x).
double int_pow(double x, unsigned e);

/// Full regression matrix: one row per design point.
Matrix model_matrix(const std::vector<Monomial>& terms, const Matrix& points);

}  // namespace ehdoe::num
