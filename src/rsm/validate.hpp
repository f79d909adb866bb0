// ehdoe/rsm/validate.hpp
//
// Model validation against data the fit never saw: k-fold cross-validation
// and hold-out validation. The T3 bench uses these to report the "high
// accuracy" numbers the abstract claims.
#pragma once

#include <cstdint>
#include <vector>

#include "rsm/fit.hpp"

namespace ehdoe::rsm {

struct ValidationReport {
    double rmse = 0.0;          ///< root mean squared prediction error
    double max_abs_error = 0.0;
    double mean_abs_error = 0.0;
    /// RMSE normalized by the observed response range (dimensionless). When
    /// every hold-out response is equal, validate_holdout divides by the
    /// range of the training responses (FitResult::y) instead, so a surface
    /// that mispredicts a constant response does not read 0; it is 0 only
    /// when both ranges are zero. Never NaN or infinite for a finite RMSE.
    double nrmse_range = 0.0;
    /// RMSE normalized by the mean |response| (CV-RMSE) — the "% accuracy"
    /// figure EXPERIMENTS.md reports; meaningful even when the response is
    /// nearly flat across the region. A constant hold-out divides by the
    /// training responses' mean |y| instead, unless that is 0.
    double nrmse_mean = 0.0;
    /// 1 - SSE/SST on the validation data. A constant hold-out has no SST of
    /// its own; validate_holdout then takes the training mean as the
    /// baseline predictor, SST = sum of (y_i - training mean)^2, unless that
    /// is 0 (then 1 for an exact fit, else 0).
    double r_squared = 0.0;
    std::size_t points = 0;
};

/// Evaluate a fitted model on held-out (coded) points.
ValidationReport validate_holdout(const FitResult& fit, const Matrix& coded_points,
                                  const std::vector<double>& y);

/// k-fold cross validation: refits the model on k-1 folds, predicts the
/// held-out fold; reports pooled errors. Folds are assigned round-robin
/// after a seeded shuffle.
ValidationReport cross_validate(const ModelSpec& model, const Matrix& coded_points,
                                const std::vector<double>& y, std::size_t folds,
                                std::uint64_t seed = 0xC0FFEEull);

}  // namespace ehdoe::rsm
