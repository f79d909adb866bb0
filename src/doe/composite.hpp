// ehdoe/doe/composite.hpp
//
// Second-order designs: central composite designs (the workhorse of the
// paper's RSM flow) and Box-Behnken designs. Both support fitting a full
// quadratic model with far fewer runs than a 3^k factorial — the "moderate
// number of simulations" the abstract emphasizes.
#pragma once

#include "doe/design.hpp"

namespace ehdoe::doe {

/// Placement of the axial (star) points of a CCD.
enum class CcdVariant {
    /// Axial points at +-alpha, the rotatable alpha = (cube runs)^(1/4):
    /// uniform prediction variance on spheres (may exceed the cube).
    Circumscribed,
    FaceCentred,  ///< alpha = 1 (axial points on the faces)
};

struct CcdOptions {
    CcdVariant variant = CcdVariant::Circumscribed;
    std::size_t center_points = 4;
};

/// Central composite design for k factors.
/// Runs = cube core + 2k axial + center_points. The cube core is the full
/// 2^k factorial, or for k = 5..8 a resolution-V (or better) fraction,
/// which halves it (quarters it at k = 8) without aliasing quadratic-model
/// terms.
Design central_composite(std::size_t k, const CcdOptions& options = {});

/// The alpha value a given CCD configuration uses (for reporting/tests).
double ccd_alpha_value(std::size_t k, const CcdOptions& options);

/// Box-Behnken design for k >= 3 factors: all (+-1, +-1) pairs on factor
/// pairs with the rest at 0, plus centre points. Never leaves the cube and
/// never visits corners (useful when corners are infeasible).
Design box_behnken(std::size_t k, std::size_t center_points = 3);

}  // namespace ehdoe::doe
