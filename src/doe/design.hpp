// ehdoe/doe/design.hpp
//
// Core design-of-experiments vocabulary: factors (design parameters with
// natural ranges), the coded [-1, +1] convention, and the design matrix.
//
// All design generators in this library produce *coded* designs; the
// DesignSpace maps rows to natural units at execution time. This keeps the
// generators pure combinatorics and makes designs reusable across spaces.
#pragma once

#include <string>
#include <vector>

#include "numerics/matrix.hpp"

namespace ehdoe::doe {

using num::Matrix;
using num::Vector;

/// One design parameter with its natural range.
struct Factor {
    std::string name;
    double low = -1.0;   ///< natural value at coded -1
    double high = 1.0;   ///< natural value at coded +1
    /// Log-scale factor: coded -1..+1 maps to geometric interpolation
    /// between low and high (useful for capacitances, periods, ...).
    bool log_scale = false;

    void validate() const;

    double to_natural(double coded) const;
    double to_coded(double natural) const;
};

/// An ordered set of factors defining the (coded) design space [-1,1]^k.
class DesignSpace {
public:
    DesignSpace() = default;
    explicit DesignSpace(std::vector<Factor> factors);

    std::size_t dimension() const { return factors_.size(); }
    const std::vector<Factor>& factors() const { return factors_; }
    const Factor& factor(std::size_t i) const { return factors_.at(i); }
    /// Index of the factor with the given name; throws if absent.
    std::size_t index_of(const std::string& name) const;

    /// Coded point -> natural units (size checked).
    Vector to_natural(const Vector& coded) const;
    /// Element-wise clamp of a coded point to [-1, 1].
    Vector clamp(Vector coded) const;
    /// True when every coordinate lies in [-1-tol, 1+tol].
    bool contains(const Vector& coded, double tol = 1e-9) const;

    /// Factor names in order (for reporting).
    std::vector<std::string> names() const;

private:
    std::vector<Factor> factors_;
};

/// A design: n coded points over k factors plus provenance for reporting.
struct Design {
    Matrix points;        ///< n x k, coded in [-1, 1] (axial CCD points may exceed 1)
    std::string kind;     ///< e.g. "full-factorial(3^4)", "ccd(rotatable)"

    std::size_t runs() const { return points.rows(); }
    std::size_t dimension() const { return points.cols(); }

    /// Append the runs of another design (dimensions must match).
    void append(const Design& other);
    /// Append `n` centre points (all-zero rows).
    void add_center_points(std::size_t n);
};

/// Natural-unit view of a design for execution.
Matrix to_natural(const DesignSpace& space, const Design& design);

/// Minimum pairwise Euclidean distance between design points — the
/// space-filling criterion maximized by maximin LHS.
double min_pairwise_distance(const Matrix& points);

}  // namespace ehdoe::doe
