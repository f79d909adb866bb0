// Fixed-size thread pool and chunked fan-out tests.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"

using ehdoe::core::run_chunked;
using ehdoe::core::ThreadPool;

namespace {

/// The message of the exception `error` holds ("" when null).
std::string message_of(const std::exception_ptr& error) {
    if (!error) return "";
    try {
        std::rethrow_exception(error);
    } catch (const std::exception& e) {
        return e.what();
    }
}

}  // namespace

TEST(ThreadPool, RunsEveryTask) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i) {
        futures.push_back(pool.submit([&count] { count.fetch_add(1); }));
    }
    for (auto& f : futures) f.get();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroPromotesToHardware) {
    ThreadPool pool(0);
    EXPECT_GE(pool.size(), 1u);
    EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, TaskExceptionSurfacesThroughFuture) {
    ThreadPool pool(2);
    auto ok = pool.submit([] {});
    auto bad = pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_NO_THROW(ok.get());
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The worker that ran the throwing task must survive it.
    auto after = pool.submit([] {});
    EXPECT_NO_THROW(after.get());
}

TEST(ThreadPool, RejectsEmptyTask) {
    ThreadPool pool(1);
    EXPECT_THROW(pool.submit(nullptr), std::invalid_argument);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i) {
            pool.submit([&count] {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                count.fetch_add(1);
            });
        }
    }  // ~ThreadPool joins after the queue drains
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, TasksRunOffTheSubmittingThread) {
    ThreadPool pool(2);
    std::thread::id worker_id;
    pool.submit([&worker_id] { worker_id = std::this_thread::get_id(); }).get();
    EXPECT_NE(worker_id, std::this_thread::get_id());
}

TEST(RunChunked, SkipsChunksNotStartedOnceOneThrew) {
    // One worker runs the chunks in submission order, so index 3's throw
    // lands before chunks 4..9 start: each of them is skipped.
    ThreadPool pool(1);
    std::atomic<int> runs{0};
    const std::exception_ptr error = run_chunked(&pool, 10, 1, [&runs](std::size_t i) {
        runs.fetch_add(1);
        if (i == 3) throw std::runtime_error("index 3");
    });
    EXPECT_EQ(runs.load(), 4);
    EXPECT_EQ(message_of(error), "index 3");
}

TEST(RunChunked, ReturnsTheFirstErrorInIndexOrderNotInTime) {
    // Index 1 throws first in time; index 0 throws after it, and still wins.
    ThreadPool pool(2);
    std::promise<void> zero_started;
    std::promise<void> one_throwing;
    std::shared_future<void> zero_started_seen = zero_started.get_future().share();
    std::shared_future<void> one_throwing_seen = one_throwing.get_future().share();
    const std::exception_ptr error = run_chunked(&pool, 2, 1, [&](std::size_t i) {
        if (i == 0) {
            zero_started.set_value();
            one_throwing_seen.wait();
            throw std::runtime_error("index 0");
        }
        zero_started_seen.wait();
        one_throwing.set_value();
        throw std::runtime_error("index 1");
    });
    EXPECT_EQ(message_of(error), "index 0");
}

TEST(RunChunked, NullPoolRunsInlineInIndexOrder) {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool inline_only = true;
    const std::exception_ptr error = run_chunked(nullptr, 5, 2, [&](std::size_t i) {
        order.push_back(i);
        inline_only = inline_only && std::this_thread::get_id() == caller;
    });
    EXPECT_EQ(message_of(error), "");
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(inline_only);
    EXPECT_THROW(run_chunked(nullptr, 1, 0, [](std::size_t) {}), std::invalid_argument);
}

TEST(RunChunked, EveryIndexRunsExactlyOnce) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> runs(10);
    const std::exception_ptr error =
        run_chunked(&pool, runs.size(), 4, [&runs](std::size_t i) { runs[i].fetch_add(1); });
    EXPECT_EQ(message_of(error), "");
    for (std::size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}
