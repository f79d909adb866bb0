// ehdoe/sim/events.hpp
//
// A small discrete-event scheduler coupling the analogue world (harvester,
// storage) with the digital one (firmware tasks, tuning-controller checks,
// energy-manager threshold supervision). Events carry a callback; callbacks
// may schedule further events (periodic tasks reschedule themselves).
//
// Determinism: ties in time are broken by (priority, insertion sequence) so
// repeated runs are bit-identical — a requirement for reproducible DoE
// response collection.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace ehdoe::sim {

/// Scheduler for time-stamped callbacks.
class EventQueue {
public:
    using Callback = std::function<void(double now)>;

    /// Schedule `cb` at absolute time `when` (must be >= now()).
    /// Lower `priority` runs first among same-time events.
    /// Returns an id usable with cancel().
    std::uint64_t schedule(double when, Callback cb, int priority = 0);

    /// Schedule `cb` `delay` seconds from now.
    std::uint64_t schedule_in(double delay, Callback cb, int priority = 0);

    /// Cancel a pending event. Returns false if already fired/cancelled.
    bool cancel(std::uint64_t id);

    /// Current simulation time.
    double now() const { return now_; }

    bool empty() const { return heap_.empty(); }
    std::size_t pending() const { return heap_.size(); }
    /// Time of the next pending event; +infinity when there is none.
    double next_time() const;

    /// Pop and run the next event. Returns false when the queue is empty.
    bool run_next();

    /// Run all events with time <= t_end, then advance now() to t_end.
    void run_until(double t_end);

    /// Total number of callbacks executed.
    std::uint64_t dispatched() const { return dispatched_; }

private:
    struct Entry {
        double when;
        int priority;
        std::uint64_t seq;
        Callback cb;
    };
    struct Order {
        bool operator()(const Entry& a, const Entry& b) const {
            if (a.when != b.when) return a.when > b.when;
            if (a.priority != b.priority) return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    /// The pending events, by value, as a binary heap whose front runs next.
    std::vector<Entry> heap_;
    double now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t dispatched_ = 0;
};

/// Convenience: schedule a periodic task with fixed period, starting at
/// `first`. The task receives the current time; returning false stops the
/// recurrence.
void schedule_periodic(EventQueue& q, double first, double period,
                       std::function<bool(double)> task, int priority = 0);

}  // namespace ehdoe::sim
