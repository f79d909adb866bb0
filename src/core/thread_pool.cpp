#include "core/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "core/telemetry.hpp"

namespace ehdoe::core {

std::size_t ThreadPool::hardware_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) threads = hardware_threads();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) {
        if (w.joinable()) w.join();
    }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
    if (!task) throw std::invalid_argument("ThreadPool::submit: empty task");
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stop_) throw std::runtime_error("ThreadPool::submit: pool is shut down");
        tasks_.push(std::move(packaged));
    }
    cv_.notify_one();
    return future;
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty()) return;  // stop_ and drained
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        telemetry::Span span("task", "pool");
        task();  // packaged_task captures exceptions into the future
    }
}

std::exception_ptr run_chunked(ThreadPool* pool, std::size_t n, std::size_t chunk,
                               const std::function<void(std::size_t)>& body) {
    if (chunk == 0) throw std::invalid_argument("run_chunked: chunk >= 1");
    const std::size_t n_chunks = (n + chunk - 1) / chunk;
    // Chunks never throw out of their task: each parks its error, so every
    // started chunk drains before the first failure is returned.
    std::vector<std::exception_ptr> errors(n_chunks);
    std::atomic<bool> failed{false};
    auto run_chunk = [&](std::size_t c) noexcept {
        if (failed.load(std::memory_order_relaxed)) return;
        const std::size_t end = std::min(n, (c + 1) * chunk);
        try {
            for (std::size_t i = c * chunk; i < end; ++i) body(i);
        } catch (...) {
            errors[c] = std::current_exception();
            failed.store(true, std::memory_order_relaxed);
        }
    };

    if (!pool || n_chunks <= 1) {
        for (std::size_t c = 0; c < n_chunks; ++c) run_chunk(c);
    } else {
        std::vector<std::future<void>> futures;
        futures.reserve(n_chunks);
        for (std::size_t c = 0; c < n_chunks; ++c) {
            futures.push_back(pool->submit([&run_chunk, c] { run_chunk(c); }));
        }
        for (auto& f : futures) f.get();
    }
    for (const std::exception_ptr& e : errors) {
        if (e) return e;
    }
    return nullptr;
}

}  // namespace ehdoe::core
