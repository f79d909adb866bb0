#include "rsm/validate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/stats.hpp"

namespace ehdoe::rsm {

namespace {

/// `training_range` normalises the RMSE when every response in `y` is equal.
ValidationReport report_from(const std::vector<double>& y, const std::vector<double>& yhat,
                             double training_range) {
    ValidationReport r;
    r.points = y.size();
    if (y.empty()) return r;
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
    const double range = ymax > ymin ? ymax - ymin : training_range;
    r.nrmse_range = range > 0.0 ? r.rmse / range : 0.0;
    double mean_abs = 0.0;
    for (double v : y) mean_abs += std::fabs(v);
    mean_abs /= static_cast<double>(y.size());
    r.nrmse_mean = mean_abs > 0.0 ? r.rmse / mean_abs : 0.0;
    r.r_squared = sst > 0.0 ? 1.0 - sse / sst : (sse == 0.0 ? 1.0 : 0.0);
    return r;
}

}  // namespace

ValidationReport validate_holdout(const FitResult& fit, const Matrix& coded_points,
                                  const std::vector<double>& y) {
    if (coded_points.rows() != y.size())
        throw std::invalid_argument("validate_holdout: shape mismatch");
    if (y.empty()) throw std::invalid_argument("validate_holdout: empty validation set");
    double training_range = 0.0;
    if (!fit.y.empty()) {
        const auto [lo, hi] = std::minmax_element(fit.y.begin(), fit.y.end());
        training_range = *hi - *lo;
    }
    return report_from(y, fit.predict(coded_points), training_range);
}

ValidationReport cross_validate(const ModelSpec& model, const Matrix& coded_points,
                                const std::vector<double>& y, std::size_t folds,
                                std::uint64_t seed) {
    const std::size_t n = coded_points.rows();
    if (y.size() != n) throw std::invalid_argument("cross_validate: shape mismatch");
    if (folds < 2 || folds > n) throw std::invalid_argument("cross_validate: folds in 2..n");

    num::Rng rng = num::make_rng(seed);
    const std::vector<std::size_t> order = num::permutation(rng, n);

    std::vector<double> y_all, yhat_all;
    y_all.reserve(n);
    yhat_all.reserve(n);

    for (std::size_t f = 0; f < folds; ++f) {
        // Round-robin fold membership over the shuffled order.
        std::vector<std::size_t> train, test;
        for (std::size_t i = 0; i < n; ++i) {
            (i % folds == f ? test : train).push_back(order[i]);
        }
        if (train.size() < model.num_terms()) {
            throw std::invalid_argument(
                "cross_validate: folds leave too few training points for the model");
        }
        Matrix xtr(train.size(), coded_points.cols());
        std::vector<double> ytr(train.size());
        for (std::size_t i = 0; i < train.size(); ++i) {
            xtr.set_row(i, coded_points.row(train[i]));
            ytr[i] = y[train[i]];
        }
        const FitResult fit = fit_ols(model, xtr, ytr);
        for (std::size_t idx : test) {
            y_all.push_back(y[idx]);
            yhat_all.push_back(fit.predict(coded_points.row(idx)));
        }
    }
    // Every fold trains on responses from `y`, whose range y_all shares.
    return report_from(y_all, yhat_all, 0.0);
}

}  // namespace ehdoe::rsm
