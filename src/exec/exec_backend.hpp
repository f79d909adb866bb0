// ehdoe/exec/exec_backend.hpp
//
// External-simulator evaluation backend: a core::EvalBackend whose workers
// are arbitrary co-simulator *processes* described by a SimRecipe
// (exec/sim_recipe.hpp) and launched by an ExecRunner
// (exec/exec_runner.hpp). This is the paper's real workload shape — HDL
// co-simulations driven by the DoE/RSM flow — behind the same seam as
// every other execution strategy, so the whole stack above it
// (BatchRunner dedup/memoization, PersistentCache, RemoteBackend sharding,
// DesignFlow) applies to external simulators unchanged. The eval-server
// daemon serves the same runner under `--recipe`, so remote shards can
// host exec workloads too.
//
// Concurrency: `BackendOptions::threads` points run at once, fanned out
// over a core::ThreadPool by core::run_chunked, one point per task; each
// in-flight point is one live simulator process (plus whatever it spawns —
// its whole process group dies with the recipe timeout).
//
// Failure contract (shared with every backend): a crashed simulator
// (after the recipe's bounded relaunches), a timeout, or unparseable
// output surfaces as a std::runtime_error thrown in input (= design)
// order after in-flight launches drain. Determinism contract: a recipe
// whose simulator prints full-precision values (hexfloat, like
// tools/mock_hdl_sim) yields responses bitwise identical to evaluating
// the same model in-process — points travel to the deck as hexfloats, so
// no bits are lost in either direction.
#pragma once

#include <memory>

#include "core/eval_backend.hpp"
#include "exec/exec_runner.hpp"
#include "exec/sim_recipe.hpp"

namespace ehdoe::core {
class ThreadPool;
}

namespace ehdoe::exec {

class ExecBackend : public core::EvalBackend {
public:
    /// Validates the recipe and creates the scratch root. `options.threads`
    /// bounds concurrent simulator processes (0 = all hardware threads);
    /// the recipe's own `retries` bounds relaunches.
    ExecBackend(SimRecipe recipe, core::BackendOptions options);
    ~ExecBackend() override;

    ExecBackend(const ExecBackend&) = delete;
    ExecBackend& operator=(const ExecBackend&) = delete;

    std::vector<core::ResponseMap> evaluate(const std::vector<Vector>& points) override;

    std::string name() const override { return "exec"; }
    /// Concurrent simulator processes the pool can keep in flight.
    std::size_t concurrency() const override { return threads_; }
    /// Completed points (launches() counts raw processes).
    std::size_t simulations() const override { return simulations_; }
    /// One dispatch unit per point launch round-trip.
    std::size_t batches() const override { return batches_; }

    const SimRecipe& recipe() const { return runner_.recipe(); }
    const ExecRunner& runner() const { return runner_; }

    // Exec-specific lifetime counters (forwarded from the runner).
    /// Simulator processes launched (relaunches included).
    std::size_t launches() const { return runner_.launches(); }
    /// Launches that hit the recipe's wall-clock timeout.
    std::size_t timeouts() const { return runner_.timeouts(); }
    /// Relaunches after nonzero exits/crashes (the respawn analogue).
    std::size_t relaunches() const { return runner_.relaunches(); }
    /// Snapshot of the runner's per-point wall-time histogram
    /// (microseconds; see ExecRunner::latency_histogram).
    core::telemetry::LatencyHistogram latency_histogram() const {
        return runner_.latency_histogram();
    }

private:
    ExecRunner runner_;
    std::size_t threads_ = 1;
    std::unique_ptr<core::ThreadPool> pool_;
    std::size_t simulations_ = 0;
    std::size_t batches_ = 0;
};

}  // namespace ehdoe::exec
