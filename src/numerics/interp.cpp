#include "numerics/interp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ehdoe::num {

namespace {
void validate_knots(const std::vector<double>& xs, const std::vector<double>& ys) {
    if (xs.size() != ys.size()) throw std::invalid_argument("interp: size mismatch");
    if (xs.size() < 2) throw std::invalid_argument("interp: need at least two knots");
    for (std::size_t i = 1; i < xs.size(); ++i) {
        if (!(xs[i] > xs[i - 1]))
            throw std::invalid_argument("interp: abscissae must be strictly increasing");
    }
}

std::size_t find_segment(const std::vector<double>& xs, double x) {
    // Index i such that xs[i] <= x < xs[i+1], clamped to valid segments.
    if (x <= xs.front()) return 0;
    if (x >= xs.back()) return xs.size() - 2;
    const auto it = std::upper_bound(xs.begin(), xs.end(), x);
    return static_cast<std::size_t>(it - xs.begin()) - 1;
}
}  // namespace

LinearTable::LinearTable(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
    validate_knots(xs_, ys_);
}

double LinearTable::operator()(double x) const {
    if (x <= xs_.front()) return ys_.front();
    if (x >= xs_.back()) return ys_.back();
    const std::size_t i = find_segment(xs_, x);
    const double w = (x - xs_[i]) / (xs_[i + 1] - xs_[i]);
    return ys_[i] + w * (ys_[i + 1] - ys_[i]);
}

CubicSpline::CubicSpline(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
    validate_knots(xs_, ys_);
    const std::size_t n = xs_.size();
    m_.assign(n, 0.0);
    // A natural spline over one segment is the chord: m stays 0.
    if (n > 2) {
        // Thomas algorithm on the tridiagonal system for interior second
        // derivatives; natural boundary: m_0 = m_{n-1} = 0.
        std::vector<double> a(n, 0.0), b(n, 0.0), c(n, 0.0), d(n, 0.0);
        for (std::size_t i = 1; i + 1 < n; ++i) {
            const double h0 = xs_[i] - xs_[i - 1];
            const double h1 = xs_[i + 1] - xs_[i];
            a[i] = h0;
            b[i] = 2.0 * (h0 + h1);
            c[i] = h1;
            d[i] = 6.0 * ((ys_[i + 1] - ys_[i]) / h1 - (ys_[i] - ys_[i - 1]) / h0);
        }
        for (std::size_t i = 2; i + 1 < n; ++i) {
            const double w = a[i] / b[i - 1];
            b[i] -= w * c[i - 1];
            d[i] -= w * d[i - 1];
        }
        for (std::size_t i = n - 2; i >= 1; --i) {
            m_[i] = (d[i] - c[i] * m_[i + 1]) / b[i];
            if (i == 1) break;
        }
    }
    six_h_.resize(n - 1);
    c0_.resize(n - 1);
    c1_.resize(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const double h = xs_[i + 1] - xs_[i];
        six_h_[i] = 6.0 * h;
        c0_[i] = ys_[i] / h - m_[i] * h / 6.0;
        c1_[i] = ys_[i + 1] / h - m_[i + 1] * h / 6.0;
    }
}

std::size_t CubicSpline::segment(double x) const { return find_segment(xs_, x); }

double CubicSpline::operator()(double x) const {
    x = std::clamp(x, xs_.front(), xs_.back());
    const std::size_t i = segment(x);
    const double t0 = xs_[i + 1] - x;
    const double t1 = x - xs_[i];
    return (m_[i] * t0 * t0 * t0 + m_[i + 1] * t1 * t1 * t1) / six_h_[i] + c0_[i] * t0 +
           c1_[i] * t1;
}

}  // namespace ehdoe::num
