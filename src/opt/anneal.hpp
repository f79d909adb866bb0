// ehdoe/opt/anneal.hpp
//
// Simulated annealing with geometric cooling and adaptive step scaling —
// the second classical heuristic baseline of T5.
#pragma once

#include <cstdint>

#include "numerics/stats.hpp"
#include "opt/optimizer.hpp"

namespace ehdoe::opt {

struct AnnealOptions {
    double t_initial = 1.0;        ///< in units of typical objective spread
    double t_final = 1e-5;
    double cooling = 0.95;         ///< geometric factor per epoch
    std::size_t moves_per_epoch = 30;
    double step_initial = 0.3;     ///< proposal sigma, box-width units
    double step_final = 0.01;
    std::uint64_t seed = 1234;
    /// Independent chains run in lockstep: chain 0 starts at x0, later
    /// chains at a uniform sample from their own RNG stream. Every move's
    /// proposals (one per chain) are submitted as a single batch, so a
    /// BatchObjective backed by the batch evaluation engine simulates them
    /// in parallel. Each chain's trajectory depends only on its own stream,
    /// so results are identical to running the chains one after another.
    std::size_t restarts = 1;
};

/// Each move's proposals go out as one batch; trajectories and evaluation
/// counts are bitwise those of a serial batch.
OptResult simulated_annealing(const BatchObjective& f, const Bounds& bounds, const Vector& x0,
                              const AnnealOptions& options = {});

}  // namespace ehdoe::opt
