// Discrete-event scheduler tests.
#include <gtest/gtest.h>

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
