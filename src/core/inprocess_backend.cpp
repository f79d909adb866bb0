#include "core/inprocess_backend.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>

#include "core/thread_pool.hpp"

namespace ehdoe::core {

InProcessBackend::InProcessBackend(Simulation sim, BackendOptions options)
    : sim_(std::move(sim)), options_(std::move(options)) {
    if (!sim_) throw std::invalid_argument("InProcessBackend: simulation required");
    if (options_.replicates == 0)
        throw std::invalid_argument("InProcessBackend: replicates >= 1");
    threads_ = options_.threads == 0 ? ThreadPool::hardware_threads() : options_.threads;
}

InProcessBackend::~InProcessBackend() = default;

std::vector<ResponseMap> InProcessBackend::evaluate(const std::vector<Vector>& points) {
    const std::size_t n = points.size();
    std::vector<ResponseMap> out(n);

    // About 4 batches per worker: coarse enough to amortize dispatch, fine
    // enough to balance load. A point is evaluated serially inside exactly
    // one batch, so responses are bitwise identical for any thread count.
    const std::size_t batch_size =
        std::max<std::size_t>(1, (n + 4 * threads_ - 1) / (4 * threads_));
    if (threads_ > 1 && !pool_) pool_ = std::make_unique<ThreadPool>(threads_);
    std::atomic<std::size_t> simulated{0};
    const std::exception_ptr error = run_chunked(pool_.get(), n, batch_size, [&](std::size_t i) {
        out[i] = simulate_replicated(sim_, points[i], options_.replicates);
        simulated.fetch_add(1, std::memory_order_relaxed);
    });
    simulations_ += simulated.load(std::memory_order_relaxed) * options_.replicates;
    batches_ += (n + batch_size - 1) / batch_size;
    if (error) std::rethrow_exception(error);
    return out;
}

}  // namespace ehdoe::core
