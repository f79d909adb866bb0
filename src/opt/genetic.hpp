// ehdoe/opt/genetic.hpp
//
// Real-coded genetic algorithm — one of the "classical multi-variable
// optimization methods ... difficult to use, due to long CPU times" the
// abstract positions the DoE flow against. Tournament selection, blend
// (BLX-alpha) crossover, Gaussian mutation, elitism.
#pragma once

#include <cstdint>

#include "numerics/stats.hpp"
#include "opt/optimizer.hpp"

namespace ehdoe::opt {

struct GeneticOptions {
    std::size_t population = 40;
    std::size_t generations = 60;
    std::size_t tournament = 3;
    double crossover_rate = 0.9;
    double blx_alpha = 0.3;
    double mutation_rate = 0.15;      ///< per-gene probability
    double mutation_sigma = 0.15;     ///< in box-width units
    std::size_t elites = 2;
    std::uint64_t seed = 42;
    /// Stop early when the best value stalls for this many generations
    /// (0 = never).
    std::size_t stall_generations = 0;
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
