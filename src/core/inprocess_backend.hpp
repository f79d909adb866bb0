// ehdoe/core/inprocess_backend.hpp
//
// The default evaluation backend: fans unique points out over a fixed-size
// core::ThreadPool inside the current process, through core::run_chunked:
//
//  * deterministic — points are chunked into batches of about four per
//    worker, each batch is one pool task and one call of the Simulation
//    (which may interleave up to its width of them), and a point is
//    evaluated inside exactly one task, so responses are bitwise identical
//    for any thread count;
//  * exception-correct — a failing point fails its batch once the batch's
//    other points have run; the run ends after all in-flight batches
//    drain, not-yet-started batches are skipped, and the first failure in
//    input order is rethrown with its type. simulations() counts the
//    points that returned responses.
#pragma once

#include <memory>

#include "core/eval_backend.hpp"

namespace ehdoe::core {

class ThreadPool;

class InProcessBackend : public EvalBackend {
public:
    /// Takes ownership of the simulation; the pool is created lazily on the
    /// first parallel call, then reused.
    InProcessBackend(Simulation sim, BackendOptions options);
    ~InProcessBackend() override;

    InProcessBackend(const InProcessBackend&) = delete;
    InProcessBackend& operator=(const InProcessBackend&) = delete;

    std::vector<ResponseMap> evaluate(const std::vector<Vector>& points) override;

    std::string name() const override { return "in-process"; }
    std::size_t concurrency() const override { return threads_; }
    std::size_t simulations() const override { return simulations_; }
    std::size_t batches() const override { return batches_; }

private:
    Simulation sim_;
    std::size_t threads_ = 1;
    std::unique_ptr<ThreadPool> pool_;
    std::size_t simulations_ = 0;
    std::size_t batches_ = 0;
};

}  // namespace ehdoe::core
