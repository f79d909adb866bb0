// ehdoe/opt/nelder_mead.hpp
//
// Nelder-Mead downhill simplex with box projection — the default local
// optimizer for response surfaces (derivative-free, robust to the mild
// non-smoothness clamping introduces). Each iteration picks its best, worst
// and second-worst vertices in one pass over the values (simplex_picks),
// with the tie rule of a stable sort, instead of sorting the simplex.
#pragma once

#include <vector>

#include "opt/optimizer.hpp"

namespace ehdoe::opt {

struct NelderMeadOptions {
    double initial_step = 0.25;   ///< simplex edge, in box units
    double tol = 1e-9;            ///< simplex value-spread convergence
    std::size_t max_iterations = 2000;
    // Standard coefficients.
    double reflection = 1.0;
    double expansion = 2.0;
    double contraction = 0.5;
    double shrink = 0.5;
};

/// The three vertices a Nelder-Mead iteration acts on, picked in one pass
/// over the k+1 >= 2 vertex values.
struct SimplexPicks {
    std::size_t best;          ///< the first vertex holding the minimum
    std::size_t worst;         ///< the last vertex holding the maximum
    std::size_t second_worst;  ///< the last maximum among the other vertices
};

/// Best, worst and second-worst of `values` (size >= 2), in one pass.
/// These are the picks of a stable ascending sort of the indices (positions
/// 0, k and k-1). Up to k = 15 they are what std::sort gave: libstdc++
/// sorts up to 16 elements by stable insertion. From k = 16 up, std::sort's
/// introsort broke ties in an unspecified order; ties there now break by
/// index too. NaN compares false, so a NaN never displaces a pick; it is
/// picked only where a scan starts (best and worst start at vertex 0,
/// second-worst at the first vertex that is not the worst). std::sort's
/// comparator requirement already excluded NaN.
SimplexPicks simplex_picks(const std::vector<double>& values);

OptResult nelder_mead(const Objective& f, const Bounds& bounds, const Vector& x0,
                      const NelderMeadOptions& options = {});

}  // namespace ehdoe::opt
