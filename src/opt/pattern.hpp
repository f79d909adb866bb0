// ehdoe/opt/pattern.hpp
//
// Hooke-Jeeves pattern search: derivative-free coordinate exploration with
// pattern moves. Included both as an RSM local search and as a classical
// direct-on-simulator baseline for T5.
#pragma once

#include "opt/optimizer.hpp"

namespace ehdoe::opt {

/// Explores from `x0` with steps of a quarter of the box width, halving the
/// step whenever no move improves; converges once the step falls below
/// 1e-8 box widths and stops after 2000 iterations.
OptResult pattern_search(const Objective& f, const Bounds& bounds, const Vector& x0);

}  // namespace ehdoe::opt
