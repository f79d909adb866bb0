// ehdoe/numerics/ode.hpp
//
// The right-hand side of an initial value problem x' = f(t, x), shared by
// the circuit models (harvester/harvester_system.hpp) and the engines that
// integrate them. The implicit trapezoidal method with a damped Newton
// solve per step, the costly baseline the paper's fast engine is measured
// against, is sim::TransientEngine (sim/transient.hpp).
#pragma once

#include <functional>

#include "numerics/matrix.hpp"

namespace ehdoe::num {

/// Right-hand side of x' = f(t, x).
using OdeRhs = std::function<Vector(double t, const Vector& x)>;

}  // namespace ehdoe::num
