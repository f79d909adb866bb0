// ehdoe/rsm/stepwise.hpp
//
// Model reduction by backward elimination: drop the least significant term
// while its p-value exceeds 0.10, for at most 100 steps. The intercept
// always stays, and so does a main effect while a higher-order term holding
// its factor remains (model heredity). The paper's flow fits full
// quadratics; stepwise pruning tightens prediction variance when the design
// has few excess degrees of freedom.
#pragma once

#include <vector>

#include "rsm/diagnostics.hpp"
#include "rsm/fit.hpp"

namespace ehdoe::rsm {

struct StepwiseResult {
    FitResult fit;
    std::size_t terms_removed = 0;
    std::vector<std::string> removed_terms;  ///< printable names, drop order
};

/// Backward elimination starting from `initial` (already fitted terms).
StepwiseResult backward_eliminate(const ModelSpec& initial, const Matrix& coded_points,
                                  const std::vector<double>& y);

}  // namespace ehdoe::rsm
