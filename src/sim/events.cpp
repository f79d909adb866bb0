#include "sim/events.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

namespace ehdoe::sim {

std::uint64_t EventQueue::schedule(double when, Callback cb, int priority) {
    if (when < now_) throw std::invalid_argument("EventQueue::schedule: event in the past");
    if (!cb) throw std::invalid_argument("EventQueue::schedule: empty callback");
    auto entry = std::make_unique<Entry>();
    entry->when = when;
    entry->priority = priority;
    entry->seq = next_seq_++;
    entry->cb = std::move(cb);
    Entry* raw = entry.get();
    storage_.push_back(std::move(entry));
    queue_.push(raw);
    ++live_count_;
    return raw->seq;
}

std::uint64_t EventQueue::schedule_in(double delay, Callback cb, int priority) {
    if (delay < 0.0) throw std::invalid_argument("EventQueue::schedule_in: negative delay");
    return schedule(now_ + delay, std::move(cb), priority);
}

bool EventQueue::cancel(std::uint64_t id) {
    // Linear scan over live entries; queues here hold only a handful of
    // pending events (a few tasks + controller checks), so this is cheap.
    for (auto& e : storage_) {
        if (e && e->seq == id && !e->cancelled) {
            e->cancelled = true;
            --live_count_;
            return true;
        }
    }
    return false;
}

double EventQueue::next_time() const {
    // Skip cancelled heads without mutating (const) — peek via copy of top
    // pointers is not possible with std::priority_queue, so report the head
    // even if cancelled; callers use empty()/run_next() for exact control.
    if (live_count_ == 0) return std::numeric_limits<double>::infinity();
    return queue_.empty() ? std::numeric_limits<double>::infinity() : queue_.top()->when;
}

bool EventQueue::run_next() {
    while (!queue_.empty()) {
        Entry* e = queue_.top();
        queue_.pop();
        if (e->cancelled) continue;
        now_ = e->when;
        --live_count_;
        ++dispatched_;
        Callback cb = std::move(e->cb);
        e->cancelled = true;  // mark consumed
        cb(now_);
        // Opportunistic compaction when most storage is dead. The heap may
        // still hold raw pointers to cancelled entries (they are only
        // discarded lazily on pop), so it must be rebuilt from the
        // surviving live entries before the dead ones are freed.
        if (storage_.size() > 1024 && live_count_ * 4 < storage_.size()) {
            storage_.erase(
                std::remove_if(storage_.begin(), storage_.end(),
                               [](const std::unique_ptr<Entry>& p) { return p->cancelled; }),
                storage_.end());
            std::priority_queue<Entry*, std::vector<Entry*>, Order> rebuilt;
            for (const auto& p : storage_) rebuilt.push(p.get());
            queue_ = std::move(rebuilt);
        }
        return true;
    }
    return false;
}

void EventQueue::run_until(double t_end) {
    while (!queue_.empty()) {
        Entry* head = queue_.top();
        if (head->cancelled) {
            queue_.pop();
            continue;
        }
        if (head->when > t_end) break;
        run_next();
    }
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
