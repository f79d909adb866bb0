// ehdoe/doe/batch_runner.hpp
//
// The batch evaluation orchestrator: the one place in the toolkit where
// simulator time is accounted for. A BatchRunner turns matrices of design
// points into response matrices on top of a pluggable core::EvalBackend
// (in-process thread pool, external simulator processes, persistent on-disk
// cache — see core/eval_backend.hpp). The orchestrator owns what is common
// to every execution strategy:
//
//  * deterministic — results land in design order and are bitwise identical
//    regardless of backend or worker count, because every unique point is
//    evaluated exactly once, serially within one worker;
//  * memoized — evaluations are cached keyed on the exact natural-unit
//    vector, so CCD centre replicates, validation re-runs and optimizer
//    confirmation visits of already-simulated points are free (replicated
//    design points are therefore identical copies with no pure-error
//    information);
//  * accounted — lifetime counters (simulations, cache hits, batches, wall
//    time) aggregate the backend's ledgers with the in-memory memo table;
//  * exception-correct — a failing point aborts the run after in-flight
//    work drains, and the first failure in design order reaches the caller.
//
// The memo lives as long as its runner: a runner built per call (as the
// benches build them) simulates each call afresh, while core::DesignFlow
// holds a persistent one so the cache spans the whole DoE -> RSM -> confirm
// loop.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "doe/runner.hpp"

namespace ehdoe::core {
class PersistentCache;
}

namespace ehdoe::core::telemetry {
class Journal;
}

namespace ehdoe::doe {

/// Lifetime counters of a BatchRunner (across all calls).
struct BatchStats {
    std::size_t points = 0;        ///< design points requested
    std::size_t simulations = 0;   ///< simulator invocations performed
    std::size_t cache_hits = 0;    ///< points served without simulating
    std::size_t batches = 0;       ///< work batches dispatched by the backend
    double wall_seconds = 0.0;     ///< total time inside evaluate()
};

class BatchRunner {
public:
    /// Takes ownership of the simulation and builds the backend stack the
    /// options describe; options are fixed for the runner's lifetime.
    explicit BatchRunner(Simulation sim, RunnerOptions options = {});
    /// Orchestrate over an externally built backend (tests, exotic stacks):
    /// the stack is whatever the caller composed, and options() are the
    /// defaults.
    explicit BatchRunner(std::shared_ptr<core::EvalBackend> backend);
    ~BatchRunner();

    BatchRunner(const BatchRunner&) = delete;
    BatchRunner& operator=(const BatchRunner&) = delete;

    /// Evaluate every row of `natural` (natural units), in row order.
    std::vector<ResponseMap> evaluate(const Matrix& natural);
    /// Same, for a list of natural-unit points (the opt::BatchObjective
    /// bridge: GA/SA populations come in this shape).
    std::vector<ResponseMap> evaluate(const std::vector<Vector>& natural);

    /// Evaluate a single natural-unit point (cached like any other).
    ResponseMap evaluate_point(const Vector& natural);

    /// Run explicit *coded* points mapped through `space`.
    RunResults run_points(const DesignSpace& space, const Matrix& coded_points);

    /// Run a whole design mapped through `space`.
    RunResults run_design(const DesignSpace& space, const Design& design);

    const RunnerOptions& options() const { return options_; }
    const BatchStats& stats() const { return stats_; }
    /// Workers the backend resolved (0 in options -> hardware).
    std::size_t threads() const;

    /// The evaluation backend stack in use.
    core::EvalBackend& backend() { return *backend_; }
    const core::EvalBackend& backend() const { return *backend_; }

    /// Snapshot the persistent cache layer now (also done on destruction).
    /// Returns false when no persistent layer is configured or I/O failed.
    bool save_cache() const;

    std::size_t cache_size() const { return cache_.size(); }
    void clear_cache() { cache_.clear(); }

private:
    std::vector<ResponseMap> evaluate_rows(const std::vector<Vector>& rows);
    /// Enable tracing and open this runner's journal, as the options ask.
    void open_sinks();

    RunnerOptions options_;
    /// This runner's event journal (options_.event_log_file); declared
    /// before backend_ so it outlives the stack's last incident.
    std::unique_ptr<core::telemetry::Journal> journal_;
    std::shared_ptr<core::EvalBackend> backend_;
    /// Non-owning view of the persistent layer inside backend_, if any.
    core::PersistentCache* persistent_ = nullptr;
    /// Exact-match memoization cache; keys are the raw natural coordinates.
    std::map<std::vector<double>, ResponseMap> cache_;
    BatchStats stats_;
};

}  // namespace ehdoe::doe
