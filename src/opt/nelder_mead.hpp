// ehdoe/opt/nelder_mead.hpp
//
// Nelder-Mead downhill simplex with box projection — the default local
// optimizer for response surfaces (derivative-free, robust to the mild
// non-smoothness clamping introduces). Each iteration picks its best, worst
// and second-worst vertices in one pass over the values (simplex_picks),
// with the tie rule of a stable sort, instead of sorting the simplex.
//
// Several starts run as lanes of one driver (nelder_mead_starts): each
// round advances every live start by one move and asks a block objective
// for all of the round's points in one call, so a vectorised objective
// (one rsm::ModelSpec::predict_block call) sees up to a whole simplex per
// start at once. Every start keeps the moves, values and counters it has
// when it runs alone; nelder_mead() is the one-start case.
#pragma once

#include <vector>

#include "opt/optimizer.hpp"

namespace ehdoe::opt {

/// The three vertices a Nelder-Mead iteration acts on, picked in one pass
/// over the k+1 >= 2 vertex values.
struct SimplexPicks {
    std::size_t best;          ///< the first vertex holding the minimum
    std::size_t worst;         ///< the last vertex holding the maximum
    std::size_t second_worst;  ///< the last maximum among the other vertices
};

/// Best, worst and second-worst of the `n` >= 2 `values`, in one pass and
/// without a branch on the values.
/// These are the picks of a stable ascending sort of the indices (positions
/// 0, k and k-1). Up to k = 15 they are what std::sort gave: libstdc++
/// sorts up to 16 elements by stable insertion. From k = 16 up, std::sort's
/// introsort broke ties in an unspecified order; ties there now break by
/// index too. NaN compares false, so a NaN never displaces a pick; it is
/// picked only where a scan starts (best and worst start at vertex 0,
/// second-worst at the first vertex that is not the worst). std::sort's
/// comparator requirement already excluded NaN.
SimplexPicks simplex_picks(const double* values, std::size_t n);

/// Block objective: values[i] = f(x_i) for the `count` points x_i, each k
/// values packed k apart in `points` (k = the bounds' dimension). The
/// values must not depend on the order or grouping of the points.
using BlockObjective =
    std::function<void(const double* points, std::size_t count, double* values)>;

/// One Nelder-Mead run per start, all advanced together: each round takes
/// every unfinished start one move further (its initial simplex, or a
/// reflection, expansion, contraction or shrink) and evaluates all of the
/// round's points in one call of `f`, starts in order. Returns one result
/// per start, bit for bit what nelder_mead() returns for that start alone,
/// `evaluations` counting that start's points.
///
/// Every run takes the standard coefficients (reflection 1, expansion 2,
/// contraction and shrink 0.5) from an initial simplex whose edges are a
/// quarter of the box width, and converges when its vertex values spread
/// less than 1e-9 * (1 + |lowest|); it stops after 2000 iterations.
std::vector<OptResult> nelder_mead_starts(const BlockObjective& f, const Bounds& bounds,
                                          const std::vector<Vector>& starts);

/// nelder_mead_starts() for one start, evaluating `f` a point at a time.
OptResult nelder_mead(const Objective& f, const Bounds& bounds, const Vector& x0);

}  // namespace ehdoe::opt
