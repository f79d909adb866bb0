#include "rsm/validate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/stats.hpp"

namespace ehdoe::rsm {

ValidationReport validate_holdout(const FitResult& fit, const Matrix& coded_points,
                                  const std::vector<double>& y) {
    if (coded_points.rows() != y.size())
        throw std::invalid_argument("validate_holdout: shape mismatch");
    if (y.empty()) throw std::invalid_argument("validate_holdout: empty validation set");
    const std::vector<double> yhat = fit.predict(coded_points);
    ValidationReport r;
    r.points = y.size();
    double sse = 0.0, sae = 0.0, sst = 0.0;
    const double ybar = num::mean(y);
    double ymin = y[0], ymax = y[0];
    for (std::size_t i = 0; i < y.size(); ++i) {
        const double e = y[i] - yhat[i];
        sse += e * e;
        sae += std::fabs(e);
        sst += (y[i] - ybar) * (y[i] - ybar);
        r.max_abs_error = std::max(r.max_abs_error, std::fabs(e));
        ymin = std::min(ymin, y[i]);
        ymax = std::max(ymax, y[i]);
    }
    r.rmse = std::sqrt(sse / static_cast<double>(y.size()));
    r.mean_abs_error = sae / static_cast<double>(y.size());
    double range = ymax - ymin;
    double mean_abs = 0.0;
    for (double v : y) mean_abs += std::fabs(v);
    mean_abs /= static_cast<double>(y.size());
    // When every hold-out response is equal, the training responses supply
    // each denominator the hold-out leaves at zero: their range for
    // nrmse_range, their mean |y| for nrmse_mean, and the squared errors of
    // their mean as a baseline predictor for r_squared. A training
    // denominator of zero keeps the hold-out's own.
    const std::vector<double>& training = fit.y;
    if (!(ymax > ymin) && !training.empty()) {
        const auto [lo, hi] = std::minmax_element(training.begin(), training.end());
        if (*hi > *lo) range = *hi - *lo;
        double train_mean_abs = 0.0;
        for (double v : training) train_mean_abs += std::fabs(v);
        train_mean_abs /= static_cast<double>(training.size());
        if (train_mean_abs > 0.0) mean_abs = train_mean_abs;
        const double train_mean = num::mean(training);
        double baseline = 0.0;
        for (double v : y) baseline += (v - train_mean) * (v - train_mean);
        if (baseline > 0.0) sst = baseline;
    }
    r.nrmse_range = range > 0.0 ? r.rmse / range : 0.0;
    r.nrmse_mean = mean_abs > 0.0 ? r.rmse / mean_abs : 0.0;
    r.r_squared = sst > 0.0 ? 1.0 - sse / sst : (sse == 0.0 ? 1.0 : 0.0);
    return r;
}

}  // namespace ehdoe::rsm
