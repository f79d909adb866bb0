#include "exec/exec_backend.hpp"

#include <atomic>
#include <exception>
#include <stdexcept>
#include <vector>

#include "core/thread_pool.hpp"

namespace ehdoe::exec {

ExecBackend::ExecBackend(SimRecipe recipe, core::BackendOptions options)
    : options_(std::move(options)), runner_(std::move(recipe), options_.replicates) {
    threads_ = options_.threads == 0 ? core::ThreadPool::hardware_threads() : options_.threads;
}

ExecBackend::~ExecBackend() = default;

std::vector<core::ResponseMap> ExecBackend::evaluate(const std::vector<Vector>& points) {
    const std::size_t n = points.size();
    std::vector<core::ResponseMap> out(n);

    // One point per task: each in-flight task is one live simulator
    // process, so `threads_` bounds process concurrency exactly.
    if (threads_ > 1 && !pool_) pool_ = std::make_unique<core::ThreadPool>(threads_);
    std::atomic<std::size_t> launched{0};
    std::atomic<std::size_t> completed{0};
    const std::exception_ptr error = core::run_chunked(pool_.get(), n, 1, [&](std::size_t i) {
        launched.fetch_add(1, std::memory_order_relaxed);
        ExecOutcome outcome = runner_.run_point(points[i], i);
        if (!outcome.ok) throw std::runtime_error("ExecBackend: " + outcome.error);
        out[i] = std::move(outcome.responses);
        completed.fetch_add(1, std::memory_order_relaxed);
    });
    simulations_ += completed.load(std::memory_order_relaxed) * options_.replicates;
    batches_ += launched.load(std::memory_order_relaxed);
    if (error) std::rethrow_exception(error);
    return out;
}

}  // namespace ehdoe::exec
