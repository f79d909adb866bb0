#include "rsm/surface.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace ehdoe::rsm {

ResponseSurface::ResponseSurface(FitResult fit, doe::DesignSpace space,
                                 std::string response_name)
    : fit_(std::move(fit)), space_(std::move(space)), name_(std::move(response_name)) {
    if (fit_.model.dimension() != space_.dimension()) {
        throw std::invalid_argument("ResponseSurface: model/space dimension mismatch");
    }
    if (fit_.coefficients.size() != fit_.model.num_terms())
        throw std::invalid_argument("ResponseSurface: coefficient count mismatch");
}

double ResponseSurface::value(const Vector& coded) const { return fit_.predict(coded); }

Vector ResponseSurface::gradient(const Vector& coded) const {
    if (coded.size() != dimension())
        throw std::invalid_argument("ResponseSurface::gradient: dimension mismatch");
    Vector g(dimension());
    const auto& terms = fit_.model.terms();
    for (std::size_t j = 0; j < dimension(); ++j) {
        double acc = 0.0;
        for (std::size_t t = 0; t < terms.size(); ++t) {
            acc += fit_.coefficients[t] * terms[t].derivative(coded, j);
        }
        g[j] = acc;
    }
    return g;
}

Matrix ResponseSurface::hessian(const Vector& coded) const {
    if (coded.size() != dimension())
        throw std::invalid_argument("ResponseSurface::hessian: dimension mismatch");
    Matrix h(dimension(), dimension());
    const auto& terms = fit_.model.terms();
    for (std::size_t a = 0; a < dimension(); ++a) {
        for (std::size_t b = a; b < dimension(); ++b) {
            double acc = 0.0;
            for (std::size_t t = 0; t < terms.size(); ++t) {
                acc += fit_.coefficients[t] * terms[t].second_derivative(coded, a, b);
            }
            h(a, b) = acc;
            h(b, a) = acc;
        }
    }
    return h;
}

std::optional<StationaryPoint> ResponseSurface::stationary_point(double tol) const {
    const std::size_t k = dimension();
    const Vector origin(k);
    const Matrix h = hessian(origin);  // constant for quadratic models
    if (h.max_abs() < tol) return std::nullopt;

    // Solve H x = -b where b is the linear-part gradient at the origin.
    const Vector b = gradient(origin);
    Vector xs;
    try {
        xs = num::LuFactor(h).solve(-b);
    } catch (const std::runtime_error&) {
        return std::nullopt;  // singular Hessian: ridge system
    }

    StationaryPoint sp;
    sp.coded = xs;
    sp.value = value(xs);
    const num::SymmetricEigen eig = num::eigen_symmetric(h);
    sp.eigenvalues = eig.eigenvalues;
    sp.eigenvectors = eig.eigenvectors;

    const double lmin = sp.eigenvalues[0];
    const double lmax = sp.eigenvalues[sp.eigenvalues.size() - 1];
    const double scale = std::max(std::fabs(lmin), std::fabs(lmax));
    if (scale < tol) {
        sp.kind = StationaryKind::Degenerate;
    } else if (lmin > tol * scale) {
        sp.kind = StationaryKind::Minimum;
    } else if (lmax < -tol * scale) {
        sp.kind = StationaryKind::Maximum;
    } else if (std::fabs(lmin) <= tol * scale || std::fabs(lmax) <= tol * scale) {
        sp.kind = StationaryKind::Degenerate;
    } else {
        sp.kind = StationaryKind::Saddle;
    }
    sp.inside_region = space_.contains(sp.coded);
    return sp;
}

Matrix ResponseSurface::slice(std::size_t fi, std::size_t fj, const Vector& fixed_coded,
                              std::size_t n, double lo, double hi) const {
    if (fi >= dimension() || fj >= dimension() || fi == fj)
        throw std::invalid_argument("ResponseSurface::slice: bad factor indices");
    if (fixed_coded.size() != dimension())
        throw std::invalid_argument("ResponseSurface::slice: fixed point dimension");
    if (n < 2) throw std::invalid_argument("ResponseSurface::slice: n >= 2");

    const std::size_t k = dimension();
    Matrix points(n * n, k);
    for (std::size_t r = 0; r < n; ++r) {
        const double xi = lo + (hi - lo) * static_cast<double>(r) / static_cast<double>(n - 1);
        for (std::size_t c = 0; c < n; ++c) {
            double* x = points.row_ptr(r * n + c);
            std::copy(fixed_coded.begin(), fixed_coded.end(), x);
            x[fi] = xi;
            x[fj] = lo + (hi - lo) * static_cast<double>(c) / static_cast<double>(n - 1);
        }
    }
    Matrix out(n, n);
    const double* beta = fit_.coefficients.data();
    fit_.model.predict_block(points.data(), n * n, k, &beta, 1, out.data());
    return out;
}

ResponseSurface::GridBest ResponseSurface::grid_best(std::size_t levels_per_factor,
                                                     bool maximize) const {
    if (levels_per_factor < 2)
        throw std::invalid_argument("ResponseSurface::grid_best: levels >= 2");
    const std::size_t k = dimension();
    std::size_t total = 1;
    for (std::size_t f = 0; f < k; ++f) {
        if (total > 50'000'000 / levels_per_factor)
            throw std::invalid_argument("ResponseSurface::grid_best: grid too large");
        total *= levels_per_factor;
    }

    // Level values, formed once by the expression value() points have
    // always been built with, so every coordinate keeps its bits.
    std::vector<double> level(levels_per_factor);
    for (std::size_t l = 0; l < levels_per_factor; ++l) {
        level[l] = -1.0 + 2.0 * static_cast<double>(l) /
                              static_cast<double>(levels_per_factor - 1);
    }

    // Points in odometer order (factor 0 fastest), predicted a block at a
    // time; the first point strictly better than all before it wins.
    constexpr std::size_t kGridBlock = 8 * ModelSpec::kBlockPoints;
    Matrix block(kGridBlock, k);
    double values[kGridBlock];
    const double* beta = fit_.coefficients.data();
    GridBest best{Vector(k), maximize ? -1e300 : 1e300};
    std::vector<std::size_t> idx(k, 0);
    for (std::size_t first = 0; first < total; first += kGridBlock) {
        const std::size_t n = std::min(kGridBlock, total - first);
        for (std::size_t p = 0; p < n; ++p) {
            double* x = block.row_ptr(p);
            for (std::size_t f = 0; f < k; ++f) x[f] = level[idx[f]];
            for (std::size_t f = 0; f < k; ++f) {
                if (++idx[f] < levels_per_factor) break;
                idx[f] = 0;
            }
        }
        fit_.model.predict_block(block.data(), n, k, &beta, 1, values);
        for (std::size_t p = 0; p < n; ++p) {
            if (maximize ? values[p] > best.value : values[p] < best.value) {
                best.value = values[p];
                std::copy_n(block.row_ptr(p), k, best.coded.begin());
            }
        }
    }
    return best;
}

}  // namespace ehdoe::rsm
