#include "numerics/ode.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ehdoe::num {

namespace {
void check_span(double t0, double t1, double h) {
    if (!(t1 > t0)) throw std::invalid_argument("ode: t1 must exceed t0");
    if (!(h > 0.0)) throw std::invalid_argument("ode: step must be positive");
}
}  // namespace

Vector OdeSolution::at(double tq) const {
    if (t.empty()) throw std::runtime_error("OdeSolution::at: empty solution");
    if (tq <= t.front()) return x.front();
    if (tq >= t.back()) return x.back();
    const auto it = std::upper_bound(t.begin(), t.end(), tq);
    const std::size_t i = static_cast<std::size_t>(it - t.begin());
    const double t0 = t[i - 1], t1 = t[i];
    const double w = (tq - t0) / (t1 - t0);
    Vector out = x[i - 1];
    out *= (1.0 - w);
    out.axpy(w, x[i]);
    return out;
}

OdeSolution integrate_euler(const OdeRhs& f, Vector x0, double t0, double t1, double h) {
    check_span(t0, t1, h);
    OdeSolution sol;
    sol.t.push_back(t0);
    sol.x.push_back(x0);
    double t = t0;
    Vector x = std::move(x0);
    while (t < t1 - 1e-15) {
        const double step = std::min(h, t1 - t);
        Vector k = f(t, x);
        ++sol.rhs_evaluations;
        x.axpy(step, k);
        t += step;
        ++sol.steps_taken;
        sol.t.push_back(t);
        sol.x.push_back(x);
    }
    return sol;
}

OdeSolution integrate_rk4(const OdeRhs& f, Vector x0, double t0, double t1, double h) {
    check_span(t0, t1, h);
    OdeSolution sol;
    sol.t.push_back(t0);
    sol.x.push_back(x0);
    double t = t0;
    Vector x = std::move(x0);
    while (t < t1 - 1e-15) {
        const double step = std::min(h, t1 - t);
        const Vector k1 = f(t, x);
        Vector x2 = x; x2.axpy(0.5 * step, k1);
        const Vector k2 = f(t + 0.5 * step, x2);
        Vector x3 = x; x3.axpy(0.5 * step, k2);
        const Vector k3 = f(t + 0.5 * step, x3);
        Vector x4 = x; x4.axpy(step, k3);
        const Vector k4 = f(t + step, x4);
        sol.rhs_evaluations += 4;

        x.axpy(step / 6.0, k1);
        x.axpy(step / 3.0, k2);
        x.axpy(step / 3.0, k3);
        x.axpy(step / 6.0, k4);
        t += step;
        ++sol.steps_taken;
        sol.t.push_back(t);
        sol.x.push_back(x);
    }
    return sol;
}

OdeSolution integrate_rkf45(const OdeRhs& f, Vector x0, double t0, double t1,
                            const Rkf45Options& opt) {
    if (!(t1 > t0)) throw std::invalid_argument("ode: t1 must exceed t0");
    OdeSolution sol;
    sol.t.push_back(t0);
    sol.x.push_back(x0);

    // Fehlberg tableau.
    static const double a2 = 1.0 / 4.0;
    static const double b31 = 3.0 / 32.0, b32 = 9.0 / 32.0;
    static const double b41 = 1932.0 / 2197.0, b42 = -7200.0 / 2197.0, b43 = 7296.0 / 2197.0;
    static const double b51 = 439.0 / 216.0, b52 = -8.0, b53 = 3680.0 / 513.0,
                        b54 = -845.0 / 4104.0;
    static const double b61 = -8.0 / 27.0, b62 = 2.0, b63 = -3544.0 / 2565.0,
                        b64 = 1859.0 / 4104.0, b65 = -11.0 / 40.0;
    static const double c1 = 25.0 / 216.0, c3 = 1408.0 / 2565.0, c4 = 2197.0 / 4104.0,
                        c5 = -1.0 / 5.0;
    static const double d1 = 16.0 / 135.0, d3 = 6656.0 / 12825.0, d4 = 28561.0 / 56430.0,
                        d5 = -9.0 / 50.0, d6 = 2.0 / 55.0;

    double t = t0;
    double h = std::min(opt.h_init, t1 - t0);
    Vector x = std::move(x0);

    while (t < t1 - 1e-15) {
        if (sol.steps_taken + sol.steps_rejected > opt.max_steps) {
            throw std::runtime_error("integrate_rkf45: step budget exhausted");
        }
        h = std::min(h, t1 - t);

        const Vector k1 = f(t, x);
        Vector xs = x; xs.axpy(h * a2, k1);
        const Vector k2 = f(t + h * a2, xs);
        xs = x; xs.axpy(h * b31, k1); xs.axpy(h * b32, k2);
        const Vector k3 = f(t + 3.0 * h / 8.0, xs);
        xs = x; xs.axpy(h * b41, k1); xs.axpy(h * b42, k2); xs.axpy(h * b43, k3);
        const Vector k4 = f(t + 12.0 * h / 13.0, xs);
        xs = x; xs.axpy(h * b51, k1); xs.axpy(h * b52, k2); xs.axpy(h * b53, k3);
        xs.axpy(h * b54, k4);
        const Vector k5 = f(t + h, xs);
        xs = x; xs.axpy(h * b61, k1); xs.axpy(h * b62, k2); xs.axpy(h * b63, k3);
        xs.axpy(h * b64, k4); xs.axpy(h * b65, k5);
        const Vector k6 = f(t + h / 2.0, xs);
        sol.rhs_evaluations += 6;

        Vector x4 = x;
        x4.axpy(h * c1, k1); x4.axpy(h * c3, k3); x4.axpy(h * c4, k4); x4.axpy(h * c5, k5);
        Vector x5 = x;
        x5.axpy(h * d1, k1); x5.axpy(h * d3, k3); x5.axpy(h * d4, k4); x5.axpy(h * d5, k5);
        x5.axpy(h * d6, k6);

        // Error estimate and acceptance.
        double err = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double scale = opt.abs_tol + opt.rel_tol * std::max(std::fabs(x[i]), std::fabs(x5[i]));
            err = std::max(err, std::fabs(x5[i] - x4[i]) / scale);
        }

        if (err <= 1.0 || h <= opt.h_min * 1.0000001) {
            t += h;
            x = std::move(x5);
            ++sol.steps_taken;
            sol.t.push_back(t);
            sol.x.push_back(x);
        } else {
            ++sol.steps_rejected;
        }

        const double safety = 0.9;
        double factor = err > 0.0 ? safety * std::pow(err, -0.2) : 4.0;
        factor = std::clamp(factor, 0.2, 4.0);
        h = std::clamp(h * factor, opt.h_min, opt.h_max);
    }
    return sol;
}

}  // namespace ehdoe::num
