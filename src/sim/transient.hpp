// ehdoe/sim/transient.hpp
//
// The classical nonlinear transient engine — the *baseline* the DATE'13
// abstract (and [4]) measure against: implicit trapezoidal integration with
// a full damped Newton-Raphson solve and a finite-difference Jacobian at
// every time step, exactly the cost structure of a conventional analogue
// (SPICE/VHDL-AMS) simulator.
//
// The engine wraps a nonlinear ODE right-hand side x' = f(t, x) produced by
// the circuit assembly in ehdoe::harvester and adds the accounting the T1
// bench reports (Newton iterations, Jacobian builds, LU solves).
//
// It keeps the textbook cost structure, n + 1 RHS calls (n finite-difference
// columns and a damped trial) and one LU factorization per Newton iteration
// at the default jacobian_reuse = 1. Each Jacobian's n columns come from one
// column call of num::OdeRhs, which the harvester circuit answers for all
// columns at once and a per-point callable one column at a time. Every RHS
// result, the iterate, the residual, the Newton update, the Jacobian and its
// LU live in members sized at construction or on the first step, so a step
// on the harvester's RHS allocates nothing. The goldens in
// test_harvester_system pin the waveform and every counter.
#pragma once

#include <functional>

#include "numerics/linalg.hpp"
#include "numerics/matrix.hpp"
#include "numerics/ode.hpp"

namespace ehdoe::sim {

using num::Matrix;
using num::Vector;

struct TransientOptions {
    double step = 1e-4;          ///< fixed time step (> 0, finite)
    double newton_tol = 1e-9;    ///< residual convergence (infinity norm)
    int max_newton_iters = 30;   ///< >= 1
    double fd_eps = 1e-7;        ///< Jacobian finite-difference perturbation (> 0, finite)
    /// Rebuild the Jacobian only every `jacobian_reuse` Newton iterations
    /// (1 = every iteration, the textbook method).
    int jacobian_reuse = 1;
};

struct TransientStats {
    std::size_t steps = 0;
    std::size_t newton_iterations = 0;
    std::size_t jacobian_builds = 0;
    std::size_t lu_factorizations = 0;
    std::size_t rhs_evaluations = 0;
    std::size_t nonconverged_steps = 0;
};

/// Fixed-step trapezoidal + Newton transient simulator.
class TransientEngine {
public:
    TransientEngine(num::OdeRhs rhs, std::size_t state_dim, TransientOptions options = {});

    const Vector& state() const { return x_; }
    void set_state(Vector x);
    double time() const { return t_; }
    void set_time(double t) { t_ = t; }
    const TransientStats& stats() const { return stats_; }

    /// Advance exactly one step.
    void step();

    /// Advance until `t_end` (finite), invoking `observer` after every step.
    void run(double t_end, const std::function<void(double, const Vector&)>& observer = {});

private:
    num::OdeRhs rhs_;
    TransientOptions opt_;
    Vector x_;
    double t_ = 0.0;
    TransientStats stats_;
    // Work buffers reused by every step: f(t, x), f(tn, y), the iterate y,
    // the damping trial and its f, the residual g, the Newton update, the
    // finite-difference perturbations and columns (fcols_(i, j) = f_i at
    // y + dy_j e_j), the Jacobian and its LU factorization.
    Vector fx_, fy_, y_, yt_, ft_, g_, dx_, dy_;
    Matrix fcols_, jac_;
    num::LuFactor lu_;
};

}  // namespace ehdoe::sim
