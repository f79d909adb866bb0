#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/telemetry.hpp"

namespace ehdoe::core::metrics {

int find_series(const RingSnapshot& ring, const std::string& name) {
    for (std::size_t i = 0; i < ring.series.size(); ++i) {
        if (ring.series[i] == name) return static_cast<int>(i);
    }
    return -1;
}

double last_delta(const RingSnapshot& ring, std::size_t col) {
    if (ring.rows.size() < 2) return 0.0;
    const RingSnapshot::Row& prev = ring.rows[ring.rows.size() - 2];
    const RingSnapshot::Row& last = ring.rows.back();
    if (col >= prev.values.size() || col >= last.values.size()) return 0.0;
    return last.values[col] - prev.values[col];
}

namespace {

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n % 2 == 1) return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

double median_positive(std::vector<double> values) {
    values.erase(std::remove_if(values.begin(), values.end(),
                                [](double v) { return !(v > 0.0); }),
                 values.end());
    return values.empty() ? 0.0 : median(std::move(values));
}

std::vector<bool> stragglers(const std::vector<std::optional<double>>& signals, double k) {
    std::vector<bool> flags(signals.size(), false);
    std::vector<double> others;
    for (std::size_t i = 0; i < signals.size(); ++i) {
        if (!signals[i]) continue;
        others.clear();
        for (std::size_t j = 0; j < signals.size(); ++j) {
            if (j != i && signals[j]) others.push_back(*signals[j]);
        }
        flags[i] = !others.empty() && *signals[i] > k * median(others);
    }
    return flags;
}

double window_value(const RingSnapshot& ring, std::size_t col) {
    std::vector<double> samples;
    samples.reserve(ring.rows.size());
    for (const RingSnapshot::Row& row : ring.rows) {
        if (col < row.values.size()) samples.push_back(row.values[col]);
    }
    return median_positive(std::move(samples));
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry::Registry(std::size_t ring_capacity)
    : capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

void Registry::set_interval_us(std::uint64_t interval_us) {
    std::lock_guard<std::mutex> lock(mu_);
    interval_us_ = interval_us;
}

void Registry::set_pre_sample(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(mu_);
    pre_sample_ = std::move(hook);
}

void Registry::register_series(std::string name, Probe probe) {
    std::lock_guard<std::mutex> lock(mu_);
    if (seq_ != 0)
        throw std::logic_error("metrics::Registry: register_series after sampling started");
    names_.push_back(std::move(name));
    probes_.push_back(std::move(probe));
}

std::size_t Registry::series_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return names_.size();
}

void Registry::sample_now(std::uint64_t t_us) {
    std::lock_guard<std::mutex> lock(mu_);
    if (pre_sample_) pre_sample_();
    RingSnapshot::Row row;
    row.t_us = t_us;
    row.values.reserve(probes_.size());
    for (const Probe& probe : probes_) row.values.push_back(probe ? probe() : 0.0);
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(row));
    } else {
        ring_[head_] = std::move(row);
        head_ = (head_ + 1) % capacity_;
    }
    ++seq_;
}

RingSnapshot Registry::snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    RingSnapshot snap;
    snap.interval_us = interval_us_;
    snap.first_seq = seq_ - ring_.size();
    snap.series = names_;
    snap.rows.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        snap.rows.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return snap;
}

std::uint64_t Registry::samples_taken() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seq_;
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

Sampler::Sampler(Registry& registry, double interval_seconds) : registry_(registry) {
    if (!(interval_seconds > 0.0)) return;  // disabled: no thread, interval 0
    if (!(interval_seconds <= kMaxSampleIntervalSeconds))
        throw std::invalid_argument("metrics::Sampler: interval above 1e9 s");
    interval_ = std::chrono::microseconds(
        static_cast<std::uint64_t>(interval_seconds * 1e6));
    if (interval_.count() == 0) interval_ = std::chrono::microseconds(1);
    registry_.set_interval_us(static_cast<std::uint64_t>(interval_.count()));
    thread_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stopping_) {
            if (cv_.wait_for(lock, interval_, [this] { return stopping_; })) break;
            lock.unlock();
            registry_.sample_now(telemetry::now_us());
            lock.lock();
        }
    });
}

Sampler::~Sampler() { stop(); }

void Sampler::stop() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

namespace {

/// %.17g (round-trip exact); exposition has no NaN/Inf story a scraper
/// must accept, so non-finite collapses to 0 like the telemetry JSON.
std::string format_value(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

std::string escape_label_value(const std::string& value) {
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        if (c == '\\') {
            out += "\\\\";
        } else if (c == '"') {
            out += "\\\"";
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
    return out;
}

void append_exposition_header(std::string& out, const std::string& name,
                              const std::string& help, const std::string& type) {
    out += "# HELP " + name + " " + help + "\n";
    out += "# TYPE " + name + " " + type + "\n";
}

void append_sample(std::string& out, const std::string& name,
                   const std::vector<std::pair<std::string, std::string>>& labels,
                   double value) {
    out += name;
    if (!labels.empty()) {
        out += '{';
        bool first = true;
        for (const auto& [key, label_value] : labels) {
            if (!first) out += ',';
            first = false;
            out += key + "=\"" + escape_label_value(label_value) + "\"";
        }
        out += '}';
    }
    out += ' ';
    out += format_value(value);
    out += '\n';
}

}  // namespace ehdoe::core::metrics
