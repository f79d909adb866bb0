#include "core/inprocess_backend.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <vector>

#include "core/thread_pool.hpp"

namespace ehdoe::core {

InProcessBackend::InProcessBackend(Simulation sim, BackendOptions options)
    : sim_(std::move(sim)),
      threads_(options.threads == 0 ? ThreadPool::hardware_threads() : options.threads) {
    if (!sim_) throw std::invalid_argument("InProcessBackend: simulation required");
}

InProcessBackend::~InProcessBackend() = default;

std::vector<ResponseMap> InProcessBackend::evaluate(const std::vector<Vector>& points) {
    const std::size_t n = points.size();
    std::vector<ResponseMap> out(n);

    // About 4 batches per worker: coarse enough to amortize dispatch, fine
    // enough to balance load. A batch is one pool task and one call of the
    // model, and a point's arithmetic is its own inside exactly one batch,
    // so responses are bitwise identical for any thread count. A batch
    // holds at least lane_batch()'s points, so it fills the points the
    // model interleaves unless that would leave a worker idle.
    const std::size_t batch_size = std::max((n + 4 * threads_ - 1) / (4 * threads_),
                                            lane_batch(sim_.width(), n, threads_));
    const std::size_t n_batches = (n + batch_size - 1) / batch_size;
    if (threads_ > 1 && !pool_) pool_ = std::make_unique<ThreadPool>(threads_);
    std::atomic<std::size_t> simulated{0};
    const std::exception_ptr error = run_chunked(pool_.get(), n_batches, 1, [&](std::size_t b) {
        const std::size_t begin = b * batch_size;
        std::vector<PointOutcome> outcomes(std::min(n - begin, batch_size));
        simulate_batch(sim_, &points[begin], outcomes.size(), outcomes.data());
        // Every point of the batch ran; the first failure in input order
        // fails the batch.
        std::exception_ptr first_error;
        for (std::size_t k = 0; k < outcomes.size(); ++k) {
            if (outcomes[k].error) {
                if (!first_error) first_error = outcomes[k].error;
                continue;
            }
            out[begin + k] = std::move(outcomes[k].responses);
            simulated.fetch_add(1, std::memory_order_relaxed);
        }
        if (first_error) std::rethrow_exception(first_error);
    });
    simulations_ += simulated.load(std::memory_order_relaxed);
    batches_ += n_batches;
    if (error) std::rethrow_exception(error);
    return out;
}

}  // namespace ehdoe::core
