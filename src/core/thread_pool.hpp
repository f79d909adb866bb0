// ehdoe/core/thread_pool.hpp
//
// A small fixed-size thread pool shared by every layer that fans work out
// over independent tasks, and run_chunked(), the one fan-out the executing
// backends (in-process threads, exec simulator processes) run their points
// through. Design goals, in order:
//
//  * predictable: a fixed set of workers created up front, no dynamic
//    spawning on the submission path;
//  * exception-correct: a task that throws surfaces its exception through
//    the future returned by submit(), never through a worker thread;
//  * cheap to embed: submission is a mutex + condition variable, which is
//    negligible against the cost class of the tasks we run (node
//    co-simulations taking milliseconds to seconds each).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ehdoe::core {

class ThreadPool {
public:
    /// Create `threads` workers; 0 is promoted to hardware_threads().
    explicit ThreadPool(std::size_t threads);
    /// Drains outstanding tasks, then joins all workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueue a task. The returned future yields the task's result or
    /// rethrows its exception. Throws std::runtime_error after shutdown.
    std::future<void> submit(std::function<void()> task);

    /// Number of worker threads.
    std::size_t size() const { return workers_.size(); }

    /// std::thread::hardware_concurrency with a floor of 1 (the standard
    /// allows it to return 0 on exotic platforms).
    static std::size_t hardware_threads();

private:
    void worker_loop();

    std::mutex mutex_;
    std::condition_variable cv_;
    std::queue<std::packaged_task<void()>> tasks_;
    std::vector<std::thread> workers_;
    bool stop_ = false;
};

/// Run body(i) for every i in [0, n), in chunks of `chunk` consecutive
/// indices, one pool task per chunk; a chunk runs its indices in order. Runs
/// inline, in index order, when `pool` is null or there is only one chunk.
/// Once any chunk has thrown, chunks that have not started are skipped;
/// every started chunk is waited for, so `body` may reference the caller's
/// stack. Returns the first exception in index order (null when none threw),
/// so a failure surfaces the same way under any scheduling.
std::exception_ptr run_chunked(ThreadPool* pool, std::size_t n, std::size_t chunk,
                               const std::function<void(std::size_t)>& body);

}  // namespace ehdoe::core
