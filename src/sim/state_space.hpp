// ehdoe/sim/state_space.hpp
//
// The explicit linearized state-space engine of Kazmierski et al.,
// "An explicit linearized state-space technique for accelerated simulation
// of electromagnetic vibration energy harvesters" (IEEE TCAD 31(4), 2012) —
// reference [4] of the DATE'13 abstract, and the component that makes the
// DoE simulations affordable.
//
// Idea: the only nonlinear elements in the harvester circuit are the
// multiplier diodes. Replace them with piecewise-linear companion models
// (off: open; on: series Von + Ron). For a fixed on/off pattern the whole
// electromechanical system is LTI,
//
//      x' = A(seg) x + B(seg) u,
//
// and can be advanced *exactly* over a step h with the zero-order-hold
// discretization  x+ = Ad x + Bd u  (Ad = e^{Ah}).  (Ad, Bd) pairs are
// cached per segment pattern, so after warm-up each time step costs one
// small matrix-vector product — no Newton iterations, no LU factorizations.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "numerics/expm.hpp"
#include "numerics/matrix.hpp"

namespace ehdoe::sim {

using num::Matrix;
using num::Vector;

/// Simple LTI state-space container x' = Ax + Bu, y = Cx.
struct LinearStateSpace {
    Matrix a;
    Matrix b;

    std::size_t order() const { return a.rows(); }
    std::size_t inputs() const { return b.cols(); }
};

/// One ideal-threshold switch (diode) of the PWL model. The engine asks the
/// system for the branch voltage and flips the segment bit when it crosses
/// the threshold.
struct PwlSwitch {
    double v_on = 0.3;   ///< turn-on threshold (V)
};

/// Description of a piecewise-linear switched system. The `assemble`
/// callback builds (A, B) for a given on/off pattern (bit i of `seg` = 1
/// means switch i conducts). `branch_voltage` reports the voltage across
/// switch i for the segment logic. Inputs u(t) are supplied per step by the
/// caller of the engine.
struct PwlSystem {
    std::size_t state_dim = 0;
    std::size_t input_dim = 0;
    std::vector<PwlSwitch> switches;
    std::function<void(std::uint32_t seg, Matrix& a, Matrix& b)> assemble;
    std::function<double(std::size_t switch_index, const Vector& x)> branch_voltage;
};

/// Cost/diagnostic counters, mirrored by the transient engine so that the
/// T1 bench can report comparable work metrics.
struct EngineStats {
    std::size_t steps = 0;
    std::size_t segment_changes = 0;
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;  ///< = number of expm discretizations
    std::size_t retried_steps = 0;
};

struct PwlEngineOptions {
    double step = 1e-4;
    /// When a step lands in a different segment, redo it once under the new
    /// segment matrices (improves switching-edge accuracy at ~2x cost on the
    /// few switching steps).
    bool retry_on_segment_change = true;
    /// Limit on consecutive retries of a single step (cycling guard).
    int max_retries = 4;
};

/// The engine. Owns the discretization cache, keyed by segment; callers
/// invalidate it when a *structural* parameter changes (e.g. the tuning
/// actuator alters the spring constant).
///
/// A step whose segments are cached allocates nothing: it writes the next
/// state into a buffer the engine owns, and it holds the current segment's
/// discretization, so the cache is searched only when the segment changes
/// (a reuse still counts as a cache hit). A cache entry keeps (Ad, Bd)
/// column by column, converted once from discretize_zoh's rows, so a step
/// sums two rows at a time in the lanes of a num::Pair: each row sums Ad·x
/// and Bd·u from 0.0 over ascending columns and adds the two, the bits of
/// `Ad * x + Bd * u`; the goldens in test_harvester_system pin them.
class PwlStateSpaceEngine {
public:
    PwlStateSpaceEngine(PwlSystem system, PwlEngineOptions options = {});
    // Neither copied nor moved: held_ points into this engine's cache_.
    PwlStateSpaceEngine(const PwlStateSpaceEngine&) = delete;
    PwlStateSpaceEngine& operator=(const PwlStateSpaceEngine&) = delete;

    /// Current state (initially zero).
    const Vector& state() const { return x_; }
    void set_state(Vector x);
    double time() const { return t_; }
    void set_time(double t) { t_ = t; }
    std::uint32_t segment() const { return seg_; }
    const EngineStats& stats() const { return stats_; }

    /// Structural parameters changed: free every cached discretization.
    void invalidate_cache();
    std::size_t cache_size() const { return cache_.size(); }

    /// Advance one step with input u held constant (ZOH).
    void step(const Vector& u);

    /// Advance until `t_end` (finite); `input` is sampled at the start of each step;
    /// `observer` (optional) is called after every accepted step.
    void run(double t_end, const std::function<Vector(double)>& input,
             const std::function<void(double, const Vector&)>& observer = {});

private:
    std::uint32_t classify(const Vector& x) const;
    /// The segment's [Ad Bd], column by column: column j holds rows_
    /// entries, the state rows and then zeros up to an even count.
    const double* discretization(std::uint32_t seg);
    /// x_next_ = Ad x_ + Bd u.
    void advance(const double* columns, const Vector& u);

    PwlSystem sys_;
    PwlEngineOptions opt_;
    std::size_t rows_;  ///< state_dim rounded up to even
    Vector x_;
    Vector x_next_;
    double t_ = 0.0;
    std::uint32_t seg_ = 0;
    std::unordered_map<std::uint32_t, std::vector<double>> cache_;
    /// The last segment's cache entry; its storage does not move while the
    /// entry lives.
    const double* held_ = nullptr;
    std::uint32_t held_seg_ = 0;
    EngineStats stats_;
    // Scratch matrices reused across assemble calls.
    Matrix scratch_a_;
    Matrix scratch_b_;
};

}  // namespace ehdoe::sim
