// ehdoe/rsm/model.hpp
//
// Response-surface model specification: which polynomial terms (over the
// *coded* factors) the regression fits. The standard second-order RSM of
// the paper is ModelOrder::Quadratic; Stepwise reduction (rsm/stepwise.hpp)
// can prune it afterwards.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "numerics/polynomial.hpp"

namespace ehdoe::rsm {

using num::Matrix;
using num::Monomial;
using num::Vector;

enum class ModelOrder {
    Linear,       ///< 1 + main effects
    Interaction,  ///< + two-factor interactions
    Quadratic,    ///< + pure quadratic terms (the standard RSM)
    Cubic,        ///< all monomials of total degree <= 3
};

/// An ordered polynomial term set over k coded factors.
class ModelSpec {
public:
    ModelSpec(std::size_t k, ModelOrder order);
    ModelSpec(std::size_t k, std::vector<Monomial> terms);

    std::size_t dimension() const { return k_; }
    std::size_t num_terms() const { return terms_.size(); }
    const std::vector<Monomial>& terms() const { return terms_; }
    ModelOrder declared_order() const { return order_; }

    /// Regression (model) matrix for coded design points.
    Matrix build_matrix(const Matrix& coded_points) const;

    /// sum_j terms()[j](x) * beta[j], accumulated in term order over the
    /// k-vector `coded_point` and num_terms() `coefficients`: bit for bit
    /// the dot product of x's regression row with beta. Reads only the term
    /// table compiled at construction, so it neither allocates nor writes
    /// and threads may share one model. Sizes are the caller's contract.
    double predict(const double* coded_point, const double* coefficients) const;

    /// Model with term `index` removed (used by stepwise elimination).
    ModelSpec without_term(std::size_t index) const;
    /// Model with an extra term appended.
    ModelSpec with_term(Monomial term) const;

    /// Human-readable term list, e.g. "1, x0, x1, x0*x1, x0^2".
    std::string describe(const std::vector<std::string>& names = {}) const;

    /// Minimum runs needed to fit (== num_terms()).
    std::size_t min_runs() const { return terms_.size(); }

private:
    /// One factor of a compiled term: x[var]^exponent. Exponent 0 is the
    /// padding 1.0 that brings every term to `width_` factors.
    struct Factor {
        std::uint32_t var;
        std::uint32_t exponent;
    };
    void compile();

    std::size_t k_;
    ModelOrder order_;
    std::vector<Monomial> terms_;
    /// num_terms() rows of width_ factors each; a term is the left-to-right
    /// product of its row.
    std::vector<Factor> table_;
    std::size_t width_ = 0;
};

/// Number of terms of the standard models (handy for run budgeting).
std::size_t quadratic_term_count(std::size_t k);

}  // namespace ehdoe::rsm
