#include "sim/events.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

namespace ehdoe::sim {

std::uint64_t EventQueue::schedule(double when, Callback cb, int priority) {
    if (when < now_) throw std::invalid_argument("EventQueue::schedule: event in the past");
    if (!cb) throw std::invalid_argument("EventQueue::schedule: empty callback");
    const std::uint64_t seq = next_seq_++;
    heap_.push_back(Entry{when, priority, seq, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Order{});
    return seq;
}

std::uint64_t EventQueue::schedule_in(double delay, Callback cb, int priority) {
    if (delay < 0.0) throw std::invalid_argument("EventQueue::schedule_in: negative delay");
    return schedule(now_ + delay, std::move(cb), priority);
}

bool EventQueue::cancel(std::uint64_t id) {
    // Linear scan; queues here hold only a handful of pending events (a few
    // tasks + controller checks), so this is cheap.
    const auto it = std::find_if(heap_.begin(), heap_.end(),
                                 [id](const Entry& e) { return e.seq == id; });
    if (it == heap_.end()) return false;
    heap_.erase(it);
    std::make_heap(heap_.begin(), heap_.end(), Order{});
    return true;
}

double EventQueue::next_time() const {
    return heap_.empty() ? std::numeric_limits<double>::infinity() : heap_.front().when;
}

bool EventQueue::run_next() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Order{});
    // Take the entry off the heap before running it: the callback may
    // schedule or cancel events.
    const Entry e = std::move(heap_.back());
    heap_.pop_back();
    now_ = e.when;
    ++dispatched_;
    e.cb(now_);
    return true;
}

void EventQueue::run_until(double t_end) {
    while (!heap_.empty() && heap_.front().when <= t_end) run_next();
    if (t_end > now_) now_ = t_end;
}

namespace {
// One dispatch of a periodic task. It re-arms itself with a copy, so only
// queued entries own it and the task's captures die with the last one.
struct PeriodicDispatch {
    EventQueue* q;
    double period;
    int priority;
    std::shared_ptr<std::function<bool(double)>> task;  // state shared by every copy

    void operator()(double t) const {
        if ((*task)(t)) q->schedule(t + period, *this, priority);
    }
};
}  // namespace

void schedule_periodic(EventQueue& q, double first, double period,
                       std::function<bool(double)> task, int priority) {
    if (!(period > 0.0)) throw std::invalid_argument("schedule_periodic: period must be positive");
    q.schedule(first,
               PeriodicDispatch{&q, period, priority,
                                std::make_shared<std::function<bool(double)>>(std::move(task))},
               priority);
}

}  // namespace ehdoe::sim
