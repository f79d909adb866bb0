// ehdoe/opt/optimizer.hpp
//
// Common vocabulary for the optimizers: box-constrained minimization of a
// black-box objective. Two families live here:
//  * cheap local searches used *on the RSM* (Nelder-Mead, Hooke-Jeeves)
//    where an evaluation costs nanoseconds;
//  * the classical global heuristics (GA, SA) the abstract cites as the
//    too-slow status quo when run *directly on the simulator* — the T5
//    bench quantifies exactly that comparison.
//
// All optimizers minimize; negate the objective to maximize. Evaluation
// counts are tracked by wrapping the objective (CountedObjective), because
// simulator invocations are the currency the paper's comparison is
// denominated in.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "numerics/matrix.hpp"

namespace ehdoe::opt {

using num::Matrix;
using num::Vector;

/// Objective: R^k -> R, minimized.
using Objective = std::function<double(const Vector&)>;

/// Batch objective: evaluate many points in one call, values in input
/// order. This is how the population heuristics (GA, SA restarts) submit
/// whole generations to the batch evaluation engine (doe::BatchRunner /
/// core::EvalBackend) instead of simulating one point at a time.
using BatchObjective = std::function<std::vector<double>(const std::vector<Vector>&)>;

/// Box constraints; defaults to the coded DoE cube [-1, 1]^k.
struct Bounds {
    Vector lo;
    Vector hi;

    static Bounds coded_cube(std::size_t k);
    void validate() const;
    std::size_t dimension() const { return lo.size(); }
    Vector clamp(Vector x) const;
    /// Uniform random point inside the box.
    Vector sample(std::function<double()> unit_rand) const;
};

struct OptResult {
    Vector x;
    double value = 0.0;
    std::size_t evaluations = 0;
    std::size_t iterations = 0;
    bool converged = false;
};

/// Wraps an objective and counts invocations. The counter is atomic:
/// with batch-parallel population evaluation the objective is invoked from
/// the evaluation backend's worker threads, and the count must still match
/// the serial path exactly.
class CountedObjective {
public:
    explicit CountedObjective(Objective f) : f_(std::move(f)) {}
    CountedObjective(const CountedObjective& other)
        : f_(other.f_), count_(other.count_.load(std::memory_order_relaxed)) {}
    CountedObjective& operator=(const CountedObjective&) = delete;

    double operator()(const Vector& x) const {
        count_.fetch_add(1, std::memory_order_relaxed);
        return f_(x);
    }
    std::size_t count() const { return count_.load(std::memory_order_relaxed); }

private:
    Objective f_;
    mutable std::atomic<std::size_t> count_{0};
};

/// Batch counterpart of CountedObjective: counts one evaluation per point
/// and enforces the size contract (a backend returning the wrong number of
/// values is a bug, not a quiet truncation).
class CountedBatchObjective {
public:
    explicit CountedBatchObjective(BatchObjective f) : f_(std::move(f)) {}

    std::vector<double> operator()(const std::vector<Vector>& points) const;
    std::size_t count() const { return count_.load(std::memory_order_relaxed); }

private:
    BatchObjective f_;
    mutable std::atomic<std::size_t> count_{0};
};

}  // namespace ehdoe::opt
