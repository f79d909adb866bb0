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
// thread of one process, with no reordering of floating-point work), and a
// failing point surfaces as an exception thrown in input (= design) order
// after in-flight work has drained.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "numerics/matrix.hpp"

namespace ehdoe::core {

using num::Vector;

/// Named responses of one simulation.
using ResponseMap = std::map<std::string, double>;

/// A simulation: natural-units factor vector -> named responses.
using Simulation = std::function<ResponseMap(const Vector&)>;

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

/// One point's evaluation: the responses of `replicates` runs of `sim`,
/// summed onto 0.0 and averaged. InProcessBackend and the eval daemon call
/// it with 1 (so a -0.0 response reads +0.0, and exec::ExecRunner does the
/// same sum); this is the exact arithmetic the contract's "bitwise
/// identical" promise refers to. The count parameter stays only for
/// perfbench's bitwise references, which pass 1 too.
ResponseMap simulate_replicated(const Simulation& sim, const Vector& natural,
                                std::size_t replicates);

/// Build an executing backend of the requested kind.
std::shared_ptr<EvalBackend> make_backend(Simulation sim, BackendKind kind,
                                          const BackendOptions& options);

}  // namespace ehdoe::core
