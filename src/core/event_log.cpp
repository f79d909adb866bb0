#include "core/event_log.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "core/perf_gate.hpp"
#include "core/telemetry.hpp"

namespace ehdoe::core::event_log {

namespace {

struct Journal {
    std::mutex mu;
    std::FILE* file = nullptr;
    std::string label = "ehdoe";
    std::atomic<bool> enabled{false};
};

/// Leaked singleton (the telemetry registry pattern): safe to touch from
/// destructors running at any point of process teardown.
Journal& journal() {
    static Journal* j = new Journal();
    return *j;
}

void append_number(std::string& out, double v) {
    if (!std::isfinite(v)) {
        out += '0';
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

std::uint64_t wall_ms_now() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

}  // namespace

bool open(const std::string& path) {
    Journal& j = journal();
    std::lock_guard<std::mutex> lock(j.mu);
    if (j.file) {
        std::fclose(j.file);
        j.file = nullptr;
    }
    j.file = std::fopen(path.c_str(), "ab");
    j.enabled.store(j.file != nullptr, std::memory_order_release);
    return j.file != nullptr;
}

void close() {
    Journal& j = journal();
    std::lock_guard<std::mutex> lock(j.mu);
    j.enabled.store(false, std::memory_order_release);
    if (j.file) {
        std::fclose(j.file);
        j.file = nullptr;
    }
}

bool enabled() { return journal().enabled.load(std::memory_order_acquire); }

void set_process_label(const std::string& label) {
    Journal& j = journal();
    std::lock_guard<std::mutex> lock(j.mu);
    j.label = label;
}

Event::Event(const char* kind) {
    if (!enabled()) return;
    live_ = true;
    Journal& j = journal();
    line_ = "{\"t_us\":";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(telemetry::now_us()));
    line_ += buf;
    line_ += ",\"wall_ms\":";
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(wall_ms_now()));
    line_ += buf;
    line_ += ",\"process\":\"";
    {
        std::lock_guard<std::mutex> lock(j.mu);
        append_json_escaped(line_, j.label);
    }
    line_ += "\",\"kind\":\"";
    append_json_escaped(line_, kind);
    line_ += '"';
}

Event::~Event() {
    if (!live_) return;
    line_ += "}\n";
    Journal& j = journal();
    std::lock_guard<std::mutex> lock(j.mu);
    // The journal may have closed between construction and emission; a
    // half-built line must not resurrect it.
    if (!j.file) return;
    std::fwrite(line_.data(), 1, line_.size(), j.file);
    std::fflush(j.file);
}

Event& Event::field(const char* key, const std::string& value) {
    if (!live_) return *this;
    line_ += ",\"";
    append_json_escaped(line_, key);
    line_ += "\":\"";
    append_json_escaped(line_, value);
    line_ += '"';
    return *this;
}

Event& Event::field(const char* key, const char* value) {
    return field(key, std::string(value));
}

Event& Event::field(const char* key, std::uint64_t value) {
    if (!live_) return *this;
    line_ += ",\"";
    append_json_escaped(line_, key);
    line_ += "\":";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(value));
    line_ += buf;
    return *this;
}

Event& Event::field(const char* key, double value) {
    if (!live_) return *this;
    line_ += ",\"";
    append_json_escaped(line_, key);
    line_ += "\":";
    append_number(line_, value);
    return *this;
}

}  // namespace ehdoe::core::event_log
