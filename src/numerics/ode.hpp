// ehdoe/numerics/ode.hpp
//
// The right-hand side of an initial value problem x' = f(t, x), shared by
// the circuit models (harvester/harvester_system.hpp) and the engines that
// integrate them. The implicit trapezoidal method with a damped Newton
// solve per step, the costly baseline the paper's fast engine is measured
// against, is sim::TransientEngine (sim/transient.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>

#include "numerics/matrix.hpp"

namespace ehdoe::num {

/// Right-hand side of x' = f(t, x), with the two calls a Newton engine
/// makes: f at one point, and the n finite-difference columns
/// f(t, y + dy_j e_j), j < n = y.size(), in one block. Both write into
/// storage the caller owns.
///
/// A per-point callable Vector(double t, const Vector& x) converts
/// implicitly; it answers the column call one column at a time, perturbing
/// y[j] in a copy of y, calling, and writing the same double back. A model
/// that answers the block itself comes in through batched(). nullptr and an
/// empty std::function give an empty right-hand side.
///
/// An OdeRhs holds one callable, which may keep state between calls (the
/// harvester's diode memo; the converted loop's copy of y): one object is
/// not called from two threads at once, and a copy carries its own state.
class OdeRhs {
public:
    /// The callable behind both calls. With `dy` null: out[i] = f_i(t, y).
    /// Otherwise the column block: out[i * n + j] = f_i(t, y + dy[j] e_j)
    /// for every i, j < n = y.size(), each column's bits those of a point
    /// call at that perturbed state (the perturbed entry is y[j] + dy[j]).
    using Call = std::function<void(double t, const Vector& y, const double* dy, double* out)>;

    OdeRhs() = default;
    OdeRhs(std::nullptr_t) {}
    template <class F,
              std::enable_if_t<!std::is_same_v<std::decay_t<F>, OdeRhs> &&
                                   std::is_invocable_r_v<Vector, F&, double, const Vector&>,
                               int> = 0>
    OdeRhs(F point) : OdeRhs(per_point(std::move(point))) {}

    /// A right-hand side that answers the column block itself.
    static OdeRhs batched(Call call);

    explicit operator bool() const { return static_cast<bool>(call_); }

    /// f(t, x) into dx (x.size() entries).
    void operator()(double t, const Vector& x, Vector& dx) const;
    /// out(i, j) = f_i(t, y + dy[j] e_j) for every i, j < y.size(); `out`
    /// is square of y's size.
    void columns(double t, const Vector& y, const Vector& dy, Matrix& out) const;
    /// f(t, x) as a new vector.
    Vector operator()(double t, const Vector& x) const;

private:
    static OdeRhs per_point(std::function<Vector(double, const Vector&)> point);

    Call call_;
};

}  // namespace ehdoe::num
