// Discrete-event scheduler tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/events.hpp"

using namespace ehdoe::sim;

TEST(EventQueue, RunsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, [&](double) { order.push_back(3); });
    q.schedule(1.0, [&](double) { order.push_back(1); });
    q.schedule(2.0, [&](double) { order.push_back(2); });
    while (q.run_next()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TieBreaksByPriorityThenSequence) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(1.0, [&](double) { order.push_back(10); }, 1);
    q.schedule(1.0, [&](double) { order.push_back(20); }, 0);  // higher priority
    q.schedule(1.0, [&](double) { order.push_back(11); }, 1);  // later insertion
    while (q.run_next()) {
    }
    EXPECT_EQ(order, (std::vector<int>{20, 10, 11}));
}

TEST(EventQueue, CancelPreventsExecution) {
    EventQueue q;
    bool fired = false;
    const auto id = q.schedule(1.0, [&](double) { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));  // already cancelled
    while (q.run_next()) {
    }
    EXPECT_FALSE(fired);
}

TEST(EventQueue, ScheduleInRelative) {
    EventQueue q;
    double seen = -1.0;
    q.schedule(1.0, [&](double) {});
    q.run_next();
    q.schedule_in(0.5, [&](double t) { seen = t; });
    q.run_next();
    EXPECT_DOUBLE_EQ(seen, 1.5);
}

TEST(EventQueue, RejectsPastAndEmpty) {
    EventQueue q;
    q.schedule(2.0, [](double) {});
    q.run_next();
    EXPECT_THROW(q.schedule(1.0, [](double) {}), std::invalid_argument);
    EXPECT_THROW(q.schedule(3.0, EventQueue::Callback{}), std::invalid_argument);
    EXPECT_THROW(q.schedule_in(-1.0, [](double) {}), std::invalid_argument);
}

TEST(EventQueue, CallbacksCanScheduleMore) {
    EventQueue q;
    int count = 0;
    std::function<void(double)> chain = [&](double t) {
        ++count;
        if (count < 5) q.schedule(t + 1.0, chain);
    };
    q.schedule(0.0, chain);
    while (q.run_next()) {
    }
    EXPECT_EQ(count, 5);
    EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
    EventQueue q;
    std::vector<double> fired;
    for (double t : {1.0, 2.0, 3.0, 4.0}) {
        q.schedule(t, [&](double now) { fired.push_back(now); });
    }
    q.run_until(2.5);
    EXPECT_EQ(fired.size(), 2u);
    EXPECT_DOUBLE_EQ(q.now(), 2.5);  // advanced to the horizon
    EXPECT_EQ(q.pending(), 2u);
}

TEST(EventQueue, DispatchCountAndEmpty) {
    EventQueue q;
    EXPECT_TRUE(q.empty());
    q.schedule(1.0, [](double) {});
    EXPECT_FALSE(q.empty());
    q.run_until(10.0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.dispatched(), 1u);
}

TEST(SchedulePeriodic, FiresUntilTaskDeclines) {
    EventQueue q;
    int fires = 0;
    schedule_periodic(q, 1.0, 2.0, [&](double) { return ++fires < 4; });
    q.run_until(100.0);
    EXPECT_EQ(fires, 4);       // fired at 1, 3, 5, 7; the 4th returns false
    EXPECT_TRUE(q.empty());
}

TEST(SchedulePeriodic, ReleasesCapturesOnceTheTaskDeclines) {
    // The re-arming callback must not own itself: once the task declines
    // and its last queued entry has run, everything it captured is freed.
    EventQueue q;
    auto sentinel = std::make_shared<int>(0);
    const std::weak_ptr<int> watch = sentinel;
    schedule_periodic(q, 0.5, 1.0, [s = std::move(sentinel)](double) { return ++*s < 3; });
    ASSERT_FALSE(watch.expired());
    q.run_until(1.0);
    EXPECT_FALSE(watch.expired());  // still armed
    q.run_until(100.0);
    EXPECT_EQ(q.dispatched(), 3u);
    EXPECT_TRUE(watch.expired());
}

TEST(SchedulePeriodic, PeriodValidated) {
    EventQueue q;
    EXPECT_THROW(schedule_periodic(q, 0.0, 0.0, [](double) { return true; }),
                 std::invalid_argument);
}

TEST(EventQueue, DeterministicAcrossRuns) {
    auto run_once = []() {
        EventQueue q;
        std::vector<int> order;
        for (int i = 0; i < 20; ++i) {
            q.schedule(static_cast<double>(i % 5), [&order, i](double) { order.push_back(i); });
        }
        while (q.run_next()) {
        }
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(EventQueue, LongRunsKeepTheirOrder) {
    // Chains A, B and C reschedule themselves every second and tie at each
    // whole second (A and C at priority 0, B at 1). A also schedules an event
    // D half a second ahead, which C cancels every third second. The run
    // dispatches 2,566 events, enough for any reuse or compaction of the
    // queue's storage to show in the order.
    constexpr int kSeconds = 700;
    std::vector<int> expected;  // 4 * second + {0: A, 1: C, 2: B, 3: D}
    for (int s = 0; s < kSeconds; ++s) {
        for (int kind : {0, 1, 2}) expected.push_back(4 * s + kind);
        if (s % 3 != 0) expected.push_back(4 * s + 3);
    }
    ASSERT_EQ(expected.size(), 2566u);

    EventQueue q;
    std::vector<int> order;
    std::uint64_t d_now = 0, d_prev = 0;  // ids of this and the previous second's D
    std::function<void(double)> a, b, c;
    a = [&](double t) {
        const int s = static_cast<int>(t);
        order.push_back(4 * s);
        d_prev = d_now;
        d_now = q.schedule(t + 0.5, [&order, s](double) { order.push_back(4 * s + 3); });
        if (s + 1 < kSeconds) q.schedule(t + 1.0, std::ref(a), 0);
    };
    c = [&](double t) {
        const int s = static_cast<int>(t);
        order.push_back(4 * s + 1);
        if (s % 3 == 0) {
            EXPECT_TRUE(q.cancel(d_now));
        }
        if (s + 1 < kSeconds) q.schedule(t + 1.0, std::ref(c), 0);
    };
    b = [&](double t) {
        const int s = static_cast<int>(t);
        order.push_back(4 * s + 2);
        // The previous second's D has fired or was cancelled.
        if (s > 0) {
            EXPECT_FALSE(q.cancel(d_prev));
        }
        if (s + 1 < kSeconds) q.schedule(t + 1.0, std::ref(b), 1);
    };
    const std::uint64_t first = q.schedule(0.0, std::ref(a), 0);
    q.schedule(0.0, std::ref(b), 1);
    q.schedule(0.0, std::ref(c), 0);

    q.run_until(350.25);
    EXPECT_EQ(q.pending(), 4u);  // A, C and B at 351 plus D at 350.5
    ASSERT_EQ(q.dispatched(), order.size());
    EXPECT_TRUE(std::equal(order.begin(), order.end(), expected.begin()));

    while (q.run_next()) {
    }
    EXPECT_EQ(order, expected);
    EXPECT_EQ(q.dispatched(), expected.size());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_FALSE(q.cancel(first));  // fired at t = 0
}
