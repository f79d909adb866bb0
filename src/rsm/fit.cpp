#include "rsm/fit.hpp"

#include <cmath>
#include <stdexcept>

#include "numerics/linalg.hpp"
#include "numerics/stats.hpp"

namespace ehdoe::rsm {

double FitResult::adjusted_r_squared() const {
    if (n <= p || sst <= 0.0) return r_squared();
    const double dn = static_cast<double>(n);
    const double dp = static_cast<double>(p);
    return 1.0 - (sse / (dn - dp)) / (sst / (dn - 1.0));
}

double FitResult::rmse() const {
    return n > 0 ? std::sqrt(sse / static_cast<double>(n)) : 0.0;
}

namespace {
void check_predict_shape(const FitResult& f, std::size_t dimension) {
    if (dimension != f.model.dimension())
        throw std::invalid_argument("FitResult::predict: point dimension mismatch");
    if (f.coefficients.size() != f.model.num_terms())
        throw std::invalid_argument("FitResult::predict: coefficient count mismatch");
}
}  // namespace

double FitResult::predict(const Vector& coded) const {
    check_predict_shape(*this, coded.size());
    return model.predict(coded.data(), coefficients.data());
}

std::vector<double> FitResult::predict(const Matrix& coded_points) const {
    check_predict_shape(*this, coded_points.cols());
    std::vector<double> out(coded_points.rows());
    const double* beta = coefficients.data();
    model.predict_block(coded_points.data(), coded_points.rows(), coded_points.cols(), &beta, 1,
                        out.data());
    return out;
}

FitResult fit_ols(const ModelSpec& model, const Matrix& coded_points,
                  const std::vector<double>& y) {
    const std::size_t n = coded_points.rows();
    if (y.size() != n) throw std::invalid_argument("fit: y size != design rows");
    if (n < model.num_terms()) {
        throw std::invalid_argument("fit: fewer runs (" + std::to_string(n) + ") than terms (" +
                                    std::to_string(model.num_terms()) + ")");
    }

    Matrix x = model.build_matrix(coded_points);
    Vector yv(n);
    for (std::size_t i = 0; i < n; ++i) yv[i] = y[i];

    Vector beta;
    try {
        beta = num::QrFactor(x).solve(yv);
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(std::string("fit: ") + e.what() +
                                 " — the design does not support this model");
    }

    FitResult r{model, beta, Vector(n), std::move(x), y, 0.0, 0.0, 0.0, n, model.num_terms()};
    const Vector yhat = r.x * beta;
    for (std::size_t i = 0; i < n; ++i) {
        r.residuals[i] = yv[i] - yhat[i];
        r.sse += r.residuals[i] * r.residuals[i];
    }
    const double ybar = num::mean(y);
    for (std::size_t i = 0; i < n; ++i) r.sst += (yv[i] - ybar) * (yv[i] - ybar);
    r.sigma2 = n > r.p ? r.sse / static_cast<double>(n - r.p) : 0.0;
    return r;
}

}  // namespace ehdoe::rsm
