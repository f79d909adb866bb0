// ehdoe/doe/lhs.hpp
//
// Latin hypercube sampling: n runs, each factor's range cut into n strata
// with exactly one sample per stratum. Optional maximin improvement by
// random column-swap hill climbing — cheap and effective at the design
// sizes used here (tens to hundreds of runs).
#pragma once

#include <cstdint>

#include "doe/design.hpp"
#include "numerics/stats.hpp"

namespace ehdoe::doe {

struct LhsOptions {
    /// Sample uniformly within each stratum; false centres samples.
    bool jitter = true;
    /// Maximin improvement passes (0 = plain LHS). Each pass proposes
    /// n random within-column swaps and keeps improvements.
    std::size_t maximin_iterations = 200;
};

/// Latin hypercube with `runs` points over `k` factors, coded to [-1, 1].
Design latin_hypercube(std::size_t runs, std::size_t k, num::Rng& rng,
                       const LhsOptions& options = {});

/// Convenience overload with an explicit seed.
Design latin_hypercube(std::size_t runs, std::size_t k, std::uint64_t seed,
                       const LhsOptions& options = {});

/// Verify the Latin property: each column has exactly one point per
/// stratum. Used by tests and by the runner's design validation.
bool is_latin(const Design& design, double tol = 1e-9);

}  // namespace ehdoe::doe
