// ehdoe/rsm/model.hpp
//
// Response-surface model specification: which polynomial terms (over the
// *coded* factors) the regression fits, and the one kernel that evaluates
// them. The standard second-order RSM of the paper is ModelOrder::Quadratic;
// Stepwise reduction (rsm/stepwise.hpp) can prune it afterwards.
//
// Evaluation works on an *extended point* of num_slots() values:
//
//   slot 0 .. k-1    x_0 .. x_{k-1}
//   slot k           1.0
//   slot k+1 ..      int_pow(x[var], e), one per power some term needs
//
// Each term compiles to a fixed-width row of slot indices and is the
// left-to-right product of its row, bit for bit the product
// Monomial::evaluate forms. Rows are padded with slot k to the widest row's
// length, and to at least two slots; multiplying by 1.0 is exact. A term's
// leading x^2 or x^3 is spelled out as repeated x slots: int_pow gives x*x
// and x*(x*x), the same products. So every term of a linear, interaction or
// quadratic model multiplies plain coordinates.
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
    /// Extended-point slots predict_block() keeps on the stack. A model with
    /// more slots takes its working buffer from the heap, with the same bits.
    static constexpr std::size_t kStackSlots = 64;
    /// Points and coefficient vectors one kernel pass takes at most.
    static constexpr std::size_t kBlockPoints = 8;
    static constexpr std::size_t kBlockVectors = 4;

    ModelSpec(std::size_t k, ModelOrder order);
    ModelSpec(std::size_t k, std::vector<Monomial> terms);

    std::size_t dimension() const { return k_; }
    std::size_t num_terms() const { return terms_.size(); }
    const std::vector<Monomial>& terms() const { return terms_; }
    /// Length of the extended point: k coordinates, 1.0, then the powers.
    std::size_t num_slots() const { return k_ + 1 + powers_.size(); }

    /// Regression (model) matrix for coded design points.
    Matrix build_matrix(const Matrix& coded_points) const;

    /// The block kernel: out[i * num_vectors + c] = sum_j terms()[j](x_i) *
    /// coefficients[c][j] for the `num_points` coded points x_i, each k
    /// values starting `point_stride` apart in `points`, and the
    /// `num_vectors` coefficient vectors of num_terms() values each.
    ///
    /// Every sum starts at 0.0 and adds term * coefficient in term order,
    /// without reassociation or fused multiply-add: bit for bit the dot
    /// product of x_i's regression row with that vector, whatever the block
    /// shape. One pass forms each term once per point for up to kBlockPoints
    /// points and updates the sums of up to kBlockVectors vectors with it;
    /// more vectors take another pass per kBlockVectors. Reads only the
    /// tables compiled at construction and writes only `out`, so threads may
    /// share one model; allocates nothing up to kStackSlots slots. Sizes are
    /// the caller's contract.
    void predict_block(const double* points, std::size_t num_points, std::size_t point_stride,
                       const double* const* coefficients, std::size_t num_vectors,
                       double* out) const;

    /// predict_block() for one k-vector `coded_point` and one coefficient
    /// vector.
    double predict(const double* coded_point, const double* coefficients) const;

    /// Model with term `index` removed (used by stepwise elimination).
    ModelSpec without_term(std::size_t index) const;

    /// Human-readable term list, e.g. "1, x0, x1, x0*x1, x0^2".
    std::string describe(const std::vector<std::string>& names = {}) const;

    /// Minimum runs needed to fit (== num_terms()).
    std::size_t min_runs() const { return terms_.size(); }

private:
    /// The value of power slot k + 1 + i: int_pow(x[var], exponent).
    struct Power {
        std::uint32_t var;
        std::uint32_t exponent;
    };
    void compile();
    /// The extended values of P points, slot-major: slot s of point i at
    /// ext[s * P + i].
    template <std::size_t P>
    void extend(const double* points, std::size_t point_stride, double* ext) const;
    /// Kernel passes over P extended points for every coefficient vector.
    template <std::size_t P>
    void pass(const double* ext, const double* const* coefficients, std::size_t num_vectors,
              double* out) const;

    std::size_t k_;
    std::vector<Monomial> terms_;
    /// num_terms() rows of width_ >= 2 slot indices each.
    std::vector<std::uint32_t> slots_;
    std::size_t width_ = 0;
    std::vector<Power> powers_;
};

}  // namespace ehdoe::rsm
