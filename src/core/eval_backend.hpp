// ehdoe/core/eval_backend.hpp
//
// The evaluation-backend contract: the toolkit's one abstraction over "where
// do simulator invocations actually run". A backend evaluates a list of
// natural-unit points and returns one named-response map per point, in input
// order. Everything above it — deduplication, memoization, design bookkeeping
// — lives in the orchestrator (doe::BatchRunner); everything below it is an
// execution strategy:
//
//  * InProcessBackend   (inprocess_backend.hpp)  — core::ThreadPool fan-out
//    inside the current address space; the default.
//  * exec::ExecBackend  (exec/exec_backend.hpp)  — one external simulator
//    process per point, described by a recipe: the paper's HDL
//    co-simulations, crash-isolated from the toolkit.
//  * PersistentCache    (persistent_cache.hpp)   — a decorator that
//    snapshots/restores a memo table to a versioned binary file keyed by a
//    simulation fingerprint, so repeated CLI/CI runs amortize simulations
//    across processes.
//  * net::RemoteBackend (net/remote_backend.hpp) — shards batches across
//    TCP eval-server daemons (net/eval_server.hpp): many machines, one
//    design.
//
// The contract every backend must honour: results are bitwise identical to a
// serial in-process evaluation (each point is evaluated exactly once, by one
// thread of one process, with its own floating-point work in its own order;
// a batched Simulation may interleave several points on that thread), and a
// failing point surfaces as an exception thrown in input (= design) order
// after in-flight work has drained.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "numerics/matrix.hpp"

namespace ehdoe::core {

using num::Vector;

/// Named responses of one simulation.
using ResponseMap = std::map<std::string, double>;

/// One point's result in a batch: its responses, or the exception its
/// evaluation threw.
struct PointOutcome {
    ResponseMap responses;
    std::exception_ptr error;
};

/// A simulation: natural-units factor vectors -> named responses. It takes
/// a batch of points in one call and may interleave up to width() of them on
/// the calling thread; each point's arithmetic stays its own, and a point
/// that throws fails only its own outcome. A batch call that throws itself
/// fails each point it left with neither responses nor an error. A
/// per-point callable converts implicitly, at width 1; nullptr and an empty
/// std::function give an empty simulation.
class Simulation {
public:
    /// Fill out[i] for points[i], every i < n.
    using Batch = std::function<void(const Vector* points, std::size_t n, PointOutcome* out)>;

    Simulation() = default;
    Simulation(std::nullptr_t) {}
    template <class F,
              std::enable_if_t<!std::is_same_v<std::decay_t<F>, Simulation> &&
                                   std::is_invocable_r_v<ResponseMap, F&, const Vector&>,
                               int> = 0>
    Simulation(F point) : Simulation(per_point(std::move(point))) {}

    /// A model that evaluates a batch itself, interleaving up to `width`
    /// points at a time.
    static Simulation batched(std::size_t width, Batch batch);

    explicit operator bool() const { return static_cast<bool>(batch_); }
    /// Points the model interleaves on one thread (1 for a per-point model).
    std::size_t width() const { return width_; }

    /// Evaluate points[0, n) in one call, one outcome each.
    void evaluate(const Vector* points, std::size_t n, PointOutcome* out) const;
    /// Evaluate one point: its responses, or its exception rethrown.
    ResponseMap operator()(const Vector& natural) const;

private:
    static Simulation per_point(std::function<ResponseMap(const Vector&)> point);

    Batch batch_;
    std::size_t width_ = 1;
};

/// Execution knobs shared by every backend.
struct BackendOptions {
    /// Workers (threads, or concurrent simulator processes for exec); 1 =
    /// serial, 0 = all hardware threads.
    std::size_t threads = 1;
};

/// Abstract evaluation backend. Implementations own their execution
/// resources (pool, simulator processes, cache file) and lifetime counters.
class EvalBackend {
public:
    virtual ~EvalBackend() = default;

    /// Evaluate every point, results in input order. The orchestrator only
    /// submits points that are unique within one call; backends may rely on
    /// that for sharding but must not require it for correctness.
    virtual std::vector<ResponseMap> evaluate(const std::vector<Vector>& points) = 0;

    /// Human-readable identity for reports ("in-process", "exec", ...).
    virtual std::string name() const = 0;
    /// Resolved parallelism (pool threads / concurrent processes).
    virtual std::size_t concurrency() const = 0;
    /// Lifetime raw simulator invocations.
    virtual std::size_t simulations() const = 0;
    /// Lifetime points served from a backend-level cache (decorators only).
    virtual std::size_t cache_hits() const { return 0; }
    /// Lifetime work batches dispatched.
    virtual std::size_t batches() const { return 0; }
};

/// The execution strategies make_backend() can build. In-process is the
/// only one (exec runs through exec::ExecBackend); the enum and
/// make_backend() remain only because perfbench/src/farm_store.cpp calls
/// both — delete them together with that call.
enum class BackendKind { InProcess };

/// Evaluate points[0, n) as one batch of `sim` and settle each outcome the
/// way every backend does: responses summed onto 0.0 (so a -0.0 response
/// reads +0.0, as exec::ExecRunner's sum does), and an empty response map a
/// failure. InProcessBackend, the eval daemon and simulate_replicated()
/// evaluate through it; this is the exact arithmetic the contract's
/// "bitwise identical" promise refers to.
void simulate_batch(const Simulation& sim, const Vector* points, std::size_t n,
                    PointOutcome* out);

/// Points per model call when `n` points are split over `workers`: the
/// model's `width`, cut to a worker's even share, ceil(n / workers), so a
/// batch runs as at least min(n, workers) calls. A 2-4 point frame cut to
/// full width on a 4-worker shard ran 22-45% slower. InProcessBackend and
/// the eval daemon split by this rule.
std::size_t lane_batch(std::size_t width, std::size_t n, std::size_t workers);

/// One point's evaluation: the mean of `replicates` simulate_batch() runs
/// of `sim`, each failure rethrown; with 1, bitwise what simulate_batch()
/// settles. Only perfbench's bitwise references call it, with 1.
ResponseMap simulate_replicated(const Simulation& sim, const Vector& natural,
                                std::size_t replicates);

/// Build an executing backend of the requested kind.
std::shared_ptr<EvalBackend> make_backend(Simulation sim, BackendKind kind,
                                          const BackendOptions& options);

}  // namespace ehdoe::core
