// ehdoe/doe/lhs.hpp
//
// Latin hypercube sampling: n runs, each factor's range cut into n strata
// with exactly one sample per stratum, drawn uniformly within it. Then 200
// maximin passes of random column-swap hill climbing — cheap and effective
// at the design sizes used here (tens to hundreds of runs).
#pragma once

#include <cstdint>

#include "doe/design.hpp"
#include "numerics/stats.hpp"

namespace ehdoe::doe {

/// Latin hypercube with `runs` points over `k` factors, coded to [-1, 1].
Design latin_hypercube(std::size_t runs, std::size_t k, num::Rng& rng);

/// Convenience overload with an explicit seed.
Design latin_hypercube(std::size_t runs, std::size_t k, std::uint64_t seed);

/// Verify the Latin property: each column has exactly one point per
/// stratum. Used by tests and by the runner's design validation.
bool is_latin(const Design& design, double tol = 1e-9);

}  // namespace ehdoe::doe
