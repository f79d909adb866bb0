// ehdoe/doe/optimal.hpp
//
// D-optimal designs by Fedorov exchange over a candidate set: choose n rows
// from the 3^k grid of levels -1, 0 and 1 maximizing det(X^T X) for a given
// model. Three random starts run up to 20 exchange passes each; the best
// determinant wins. Useful when the run budget is tight and irregular
// (neither a CCD nor a BBD run count fits).
#pragma once

#include <cstdint>

#include "doe/design.hpp"
#include "numerics/polynomial.hpp"
#include "numerics/stats.hpp"

namespace ehdoe::doe {

struct DOptimalResult {
    Design design;
    double log_det = 0.0;   ///< log det(X^T X) of the information matrix
    std::size_t passes_used = 0;
};

/// Build a D-optimal design with `runs` points for the model given by
/// `terms` (e.g. num::quadratic_basis(k)).
DOptimalResult d_optimal(std::size_t runs, std::size_t k,
                         const std::vector<num::Monomial>& terms, num::Rng& rng);

/// Convenience overload with an explicit seed.
DOptimalResult d_optimal(std::size_t runs, std::size_t k,
                         const std::vector<num::Monomial>& terms, std::uint64_t seed);

/// log det(X^T X) for a design under a model; -inf when singular.
double log_det_information(const Design& design, const std::vector<num::Monomial>& terms);

}  // namespace ehdoe::doe
