// ehdoe/opt/genetic.hpp
//
// Real-coded genetic algorithm — one of the "classical multi-variable
// optimization methods ... difficult to use, due to long CPU times" the
// abstract positions the DoE flow against. Tournament selection (3
// entrants), blend (BLX-0.3) crossover at rate 0.9, Gaussian mutation (each
// gene with probability 0.15, sigma 0.15 box widths) and two elites.
#pragma once

#include <cstdint>

#include "numerics/stats.hpp"
#include "opt/optimizer.hpp"

namespace ehdoe::opt {

struct GeneticOptions {
    std::size_t population = 40;  ///< >= 4
    std::size_t generations = 60;
    std::uint64_t seed = 42;
};

/// The initial population and every generation's offspring are submitted
/// as one batch, so a BatchObjective backed by the batch evaluation engine
/// (doe::BatchRunner over any core::EvalBackend) parallelizes the
/// direct-on-simulator baseline. Trajectories, results and evaluation
/// counts are those of a serial batch: child generation consumes the RNG
/// in the same order, and evaluation order cannot affect either (fitness
/// only feeds back between generations).
OptResult genetic_minimize(const BatchObjective& f, const Bounds& bounds,
                           const GeneticOptions& options = {});

}  // namespace ehdoe::opt
