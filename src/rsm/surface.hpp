// ehdoe/rsm/surface.hpp
//
// The ResponseSurface: a fitted RSM packaged for *instant* exploration —
// the artefact that delivers the paper's headline capability ("evaluate the
// effect almost instantly but still with high accuracy"). Provides analytic
// prediction, gradient, Hessian, stationary-point canonical analysis, grid
// slices and ridge traces.
#pragma once

#include <optional>
#include <string>

#include "doe/design.hpp"
#include "numerics/linalg.hpp"
#include "rsm/fit.hpp"

namespace ehdoe::rsm {

/// Classification of a quadratic surface's stationary point.
enum class StationaryKind { Minimum, Maximum, Saddle, Degenerate };

struct StationaryPoint {
    Vector coded;          ///< location in coded units
    double value = 0.0;    ///< predicted response there
    StationaryKind kind = StationaryKind::Degenerate;
    Vector eigenvalues;    ///< canonical-analysis eigenvalues (ascending)
    Matrix eigenvectors;   ///< principal axes (columns)
    bool inside_region = false;  ///< lies within the coded cube [-1,1]^k
};

/// A fitted response surface bound to its design space (for natural-unit
/// queries and reporting).
class ResponseSurface {
public:
    /// Throws std::invalid_argument unless the fit's model spans the space's
    /// factors and carries one coefficient per term.
    ResponseSurface(FitResult fit, doe::DesignSpace space, std::string response_name);

    const FitResult& fit() const { return fit_; }
    const doe::DesignSpace& space() const { return space_; }
    const std::string& response_name() const { return name_; }
    std::size_t dimension() const { return space_.dimension(); }

    // ---- evaluation (coded units) ---------------------------------------
    double value(const Vector& coded) const;
    Vector gradient(const Vector& coded) const;
    Matrix hessian(const Vector& coded) const;

    /// Canonical analysis: stationary point of the quadratic part, its type
    /// from the Hessian eigenvalues. Returns nullopt when the model has no
    /// quadratic terms or the Hessian is singular beyond `tol`.
    std::optional<StationaryPoint> stationary_point(double tol = 1e-10) const;

    /// Uniform grid slice over two factors with the others fixed:
    /// returns an (n x n) matrix of predictions; rows follow factor `fi`,
    /// columns follow factor `fj`, both swept lo..hi in coded units. All
    /// n * n points go through the block kernel in one call.
    Matrix slice(std::size_t fi, std::size_t fj, const Vector& fixed_coded, std::size_t n,
                 double lo = -1.0, double hi = 1.0) const;

    /// Best point on a uniform grid scan of the full cube (cheap global
    /// picture before running a local optimizer). Factor levels are
    /// -1 + 2 l / (levels - 1); points run in odometer order (factor 0
    /// fastest) and go through the block kernel (ModelSpec::predict_block)
    /// several at a time, with the bits of one value() per point. The first
    /// point strictly better than every earlier one wins, so the earliest of
    /// tied points does; a scan that beats nothing returns the origin with
    /// value -1e300 (maximize) or 1e300.
    struct GridBest {
        Vector coded;
        double value;
    };
    GridBest grid_best(std::size_t levels_per_factor, bool maximize) const;

private:
    FitResult fit_;
    doe::DesignSpace space_;
    std::string name_;
};

}  // namespace ehdoe::rsm
