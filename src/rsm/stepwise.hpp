// ehdoe/rsm/stepwise.hpp
//
// Model reduction by backward elimination: drop the least significant term
// while its p-value exceeds a threshold. The paper's flow fits full
// quadratics; stepwise pruning tightens prediction variance when the design
// has few excess degrees of freedom.
#pragma once

#include <vector>

#include "rsm/diagnostics.hpp"
#include "rsm/fit.hpp"

namespace ehdoe::rsm {

struct StepwiseOptions {
    double p_to_remove = 0.10;   ///< backward: drop terms with p above this
    bool keep_intercept = true;
    /// Keep main effects whose interactions/quadratics are still present
    /// (model heredity).
    bool enforce_heredity = true;
    std::size_t max_steps = 100;
};

struct StepwiseResult {
    FitResult fit;
    std::size_t terms_removed = 0;
    std::vector<std::string> removed_terms;  ///< printable names, drop order
};

/// Backward elimination starting from `initial` (already fitted terms).
StepwiseResult backward_eliminate(const ModelSpec& initial, const Matrix& coded_points,
                                  const std::vector<double>& y,
                                  const StepwiseOptions& options = {});

}  // namespace ehdoe::rsm
