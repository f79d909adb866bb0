// ehdoe/numerics/ode.hpp
//
// Time-domain integrators for initial value problems x' = f(t, x).
//
// Three explicit methods:
//  * explicit Euler       — reference / teaching only
//  * classic RK4          — fixed-step workhorse for smooth mechanics
//  * RKF45                — adaptive, used by validation runs
//
// The implicit trapezoidal method with a damped Newton solve per step, the
// costly baseline the paper's fast engine is measured against, is
// sim::TransientEngine (sim/transient.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "numerics/matrix.hpp"

namespace ehdoe::num {

/// Right-hand side of x' = f(t, x).
using OdeRhs = std::function<Vector(double t, const Vector& x)>;

/// Dense output record of an integration run.
struct OdeSolution {
    std::vector<double> t;
    std::vector<Vector> x;
    std::size_t rhs_evaluations = 0;   ///< cost accounting for the benches
    std::size_t steps_taken = 0;
    std::size_t steps_rejected = 0;    ///< adaptive methods only

    const Vector& final_state() const { return x.back(); }
    /// Linear interpolation of the state at time `tq` (clamped to range).
    Vector at(double tq) const;
};

/// Fixed-step explicit Euler from t0 to t1.
OdeSolution integrate_euler(const OdeRhs& f, Vector x0, double t0, double t1, double h);

/// Fixed-step classic Runge-Kutta 4.
OdeSolution integrate_rk4(const OdeRhs& f, Vector x0, double t0, double t1, double h);

/// Adaptive Runge-Kutta-Fehlberg 4(5).
struct Rkf45Options {
    double abs_tol = 1e-8;
    double rel_tol = 1e-6;
    double h_init = 1e-4;
    double h_min = 1e-12;
    double h_max = 1.0;
    std::size_t max_steps = 2'000'000;
};
OdeSolution integrate_rkf45(const OdeRhs& f, Vector x0, double t0, double t1,
                            const Rkf45Options& opt = {});

}  // namespace ehdoe::num
