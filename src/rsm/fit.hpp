// ehdoe/rsm/fit.hpp
//
// Ordinary least squares fit of a ModelSpec to observed responses, via
// Householder QR (numerically stable for the mildly collinear matrices a
// CCD with few centre points produces). The FitResult carries everything
// diagnostics need (residuals, the model matrix, sigma^2 estimate).
#pragma once

#include <vector>

#include "rsm/model.hpp"

namespace ehdoe::rsm {

struct FitResult {
    ModelSpec model;           ///< the fitted term set
    Vector coefficients;       ///< beta-hat, one per term
    Vector residuals;          ///< y - X beta
    Matrix x;                  ///< the model matrix used
    std::vector<double> y;     ///< observed responses
    double sse = 0.0;          ///< sum of squared errors
    double sst = 0.0;          ///< total sum of squares (about the mean)
    double sigma2 = 0.0;       ///< SSE / (n - p), residual variance estimate
    std::size_t n = 0;         ///< observations
    std::size_t p = 0;         ///< parameters

    double r_squared() const { return sst > 0.0 ? 1.0 - sse / sst : 1.0; }
    double adjusted_r_squared() const;
    double rmse() const;

    /// Predict at one coded point: ModelSpec::predict, bitwise the regression
    /// row times beta, without allocating. Throws std::invalid_argument when
    /// the point or the coefficient vector has the wrong size.
    double predict(const Vector& coded) const;
    /// Predict at every row of `coded_points`, read in place by the block
    /// kernel (ModelSpec::predict_block): the same bits as row-by-row
    /// predict(). Same shape checks.
    std::vector<double> predict(const Matrix& coded_points) const;
};

/// Fit `model` to (coded_points, y) by OLS.
/// Throws std::invalid_argument on shape mismatch and std::runtime_error
/// when the design cannot support the model (rank-deficient X).
FitResult fit_ols(const ModelSpec& model, const Matrix& coded_points,
                  const std::vector<double>& y);

}  // namespace ehdoe::rsm
