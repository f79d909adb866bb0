#include "numerics/ode.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ehdoe::num {

namespace {

void check_dimension(const Vector& f, std::size_t n) {
    if (f.size() != n) throw std::invalid_argument("OdeRhs: f(t, x) has the wrong dimension");
}

/// A per-point callable behind both calls: the column call perturbs y[j] in
/// its own copy of y, calls, and writes the same double back.
struct PerPoint {
    std::function<Vector(double, const Vector&)> point;
    Vector y;

    void operator()(double t, const Vector& x, const double* dy, double* out) {
        const std::size_t n = x.size();
        if (!dy) {
            const Vector f = point(t, x);
            check_dimension(f, n);
            std::copy(f.begin(), f.end(), out);
            return;
        }
        y = x;
        for (std::size_t j = 0; j < n; ++j) {
            const double yj = y[j];
            y[j] = yj + dy[j];
            const Vector fp = point(t, y);
            y[j] = yj;
            check_dimension(fp, n);
            for (std::size_t i = 0; i < n; ++i) out[i * n + j] = fp[i];
        }
    }
};

}  // namespace

OdeRhs OdeRhs::batched(Call call) {
    OdeRhs rhs;
    rhs.call_ = std::move(call);
    return rhs;
}

OdeRhs OdeRhs::per_point(std::function<Vector(double, const Vector&)> point) {
    if (!point) return {};
    return batched(PerPoint{std::move(point), Vector()});
}

void OdeRhs::operator()(double t, const Vector& x, Vector& dx) const {
    if (dx.size() != x.size()) throw std::invalid_argument("OdeRhs: dx dimension mismatch");
    call_(t, x, nullptr, dx.data());
}

void OdeRhs::columns(double t, const Vector& y, const Vector& dy, Matrix& out) const {
    if (dy.size() != y.size() || out.rows() != y.size() || out.cols() != y.size())
        throw std::invalid_argument("OdeRhs::columns: dimension mismatch");
    call_(t, y, dy.data(), out.data());
}

Vector OdeRhs::operator()(double t, const Vector& x) const {
    Vector dx(x.size());
    call_(t, x, nullptr, dx.data());
    return dx;
}

}  // namespace ehdoe::num
