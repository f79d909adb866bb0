// ehdoe/core/metrics.hpp
//
// The farm health plane's data model: a registry of named metric series
// (counters and gauges, each read by a probe functor) plus a fixed-capacity
// ring buffer of periodic snapshots. A server owns one Registry, registers
// probes over its existing counters (lifetime atomics, occupancy, latency
// percentiles computed from histogram *deltas* between samples), and runs a
// Sampler thread that appends one row per interval. The ring travels the
// stats wire from protocol v7 on (net/wire.hpp), so monitors can render
// recent per-shard history — throughput and latency trends, stragglers —
// instead of lifetime counters only.
//
// Strictly observational, like core/telemetry.hpp: sampling only *reads*
// counters, so results are bitwise identical with metrics on or off (the
// PR-7 tracing contract). Probes must therefore be pure reads; they run on
// the sampler thread with the registry lock held.
//
// The Prometheus text helpers at the bottom render exposition-format
// metric families (`# HELP`/`# TYPE` headers, escaped label values,
// `%.17g` sample lines); `ehdoe-farm export` composes them over every
// polled endpoint so the daemons themselves stay HTTP-free.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ehdoe::core::metrics {

/// Default ring capacity: at the daemons' default 5 s interval this keeps
/// ten minutes of history per shard, and the whole ring stays far below
/// the wire's pre-allocation caps (net/wire.hpp).
inline constexpr std::size_t kDefaultRingCapacity = 120;

/// One wire-portable copy of a registry's ring: the sampling interval, the
/// sequence number of the oldest retained row, the series (column) names,
/// and the rows oldest-to-newest. Row i carries sequence `first_seq + i`,
/// so a poller can tell a wrapped ring from a restarted server and compute
/// deltas between *consecutive* samples only.
struct RingSnapshot {
    std::uint64_t interval_us = 0;  ///< sampling interval; 0 = sampler off
    std::uint64_t first_seq = 0;    ///< sequence number of rows.front()
    std::vector<std::string> series;

    struct Row {
        std::uint64_t t_us = 0;  ///< telemetry clock at sample time
        std::vector<double> values;  ///< one per series, registration order
    };
    std::vector<Row> rows;  ///< oldest -> newest

    bool empty() const { return rows.empty(); }
};

/// Column index of a named series; -1 when absent.
int find_series(const RingSnapshot& ring, const std::string& name);

/// Delta of column `col` between the last two rows (0 with fewer than two
/// rows) — the per-interval increment of a counter series.
double last_delta(const RingSnapshot& ring, std::size_t col);

/// Median of the strictly positive entries of `values`; 0 when none. The
/// reduction behind window percentiles.
double median_positive(std::vector<double> values);

/// The straggler test: entry i is true when signals[i] exceeds `k` times
/// the median of the other entries that hold a signal (an even count
/// averages the middle pair). A 0 signal counts: a shard that serves
/// points in under 1 us reads p99 0. An entry without a signal, or one
/// with no other signal beside it, is never flagged.
std::vector<bool> stragglers(const std::vector<std::optional<double>>& signals, double k);

/// Window reduction of column `col`: the median of its positive samples
/// across the ring (0 when the column never fired). For a per-interval p99
/// series this is "the shard's typical recent p99", robust to idle rows.
double window_value(const RingSnapshot& ring, std::size_t col);

/// A process component's metric registry: named series, each backed by a
/// probe, sampled together into the ring. Servers own one instance each
/// (tests run several servers per process, so this is deliberately not a
/// singleton); registration order is column order, and probes run in that
/// order within one sample.
class Registry {
public:
    using Probe = std::function<double()>;

    explicit Registry(std::size_t ring_capacity = kDefaultRingCapacity);

    /// Recorded into every snapshot so consumers know the cadence.
    void set_interval_us(std::uint64_t interval_us);

    /// Invoked at the start of every sample, before any probe, under the
    /// registry lock: the place to compute shared per-interval state
    /// (e.g. one histogram delta that three percentile probes then read).
    void set_pre_sample(std::function<void()> hook);

    /// Register one series. Must happen before the first sample; the row
    /// width is fixed once sampling starts.
    void register_series(std::string name, Probe probe);

    std::size_t series_count() const;

    /// Take one sample now, stamped `t_us`: run the pre-sample hook, read
    /// every probe, append the row (dropping the oldest past capacity).
    void sample_now(std::uint64_t t_us);

    /// Copy of the ring, oldest row first.
    RingSnapshot snapshot() const;

    /// Rows sampled over the registry's lifetime (>= snapshot().rows.size()).
    std::uint64_t samples_taken() const;

private:
    mutable std::mutex mu_;
    std::size_t capacity_;
    std::uint64_t interval_us_ = 0;
    std::function<void()> pre_sample_;
    std::vector<std::string> names_;
    std::vector<Probe> probes_;
    std::vector<RingSnapshot::Row> ring_;  ///< circular, `head_` = oldest
    std::size_t head_ = 0;
    std::uint64_t seq_ = 0;  ///< rows ever sampled
};

/// The longest interval a Sampler accepts: 1e9 s, about 32 years. Its
/// wait counts steady_clock nanoseconds in 64 bits (about 292 years) from
/// now(); past about 9.2e9 s that count overflows, and past about 9.2e12 s
/// even the interval's microseconds do.
inline constexpr double kMaxSampleIntervalSeconds = 1e9;

/// The background sampling thread: calls registry.sample_now on the
/// telemetry clock every `interval_seconds`. A non-positive interval
/// disables sampling entirely (no thread); one above
/// kMaxSampleIntervalSeconds, infinity included, throws
/// std::invalid_argument. Destruction stops and joins.
class Sampler {
public:
    Sampler(Registry& registry, double interval_seconds);
    ~Sampler();

    Sampler(const Sampler&) = delete;
    Sampler& operator=(const Sampler&) = delete;

    void stop();

private:
    Registry& registry_;
    std::chrono::microseconds interval_{0};
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
    std::thread thread_;
};

// ---------------------------------------------------------------------------
// Prometheus text exposition (version 0.0.4) building blocks.
// ---------------------------------------------------------------------------

/// Escape a label value: backslash, double quote and newline, per the
/// exposition format.
std::string escape_label_value(const std::string& value);

/// Append `# HELP name help` + `# TYPE name type` (type: "counter",
/// "gauge"). Call once per metric family, before its samples.
void append_exposition_header(std::string& out, const std::string& name,
                              const std::string& help, const std::string& type);

/// Append one sample line: `name{k1="v1",...} value`. Values render with
/// %.17g (round-trip exact); non-finite values render as 0 like the
/// telemetry JSON writer.
void append_sample(std::string& out, const std::string& name,
                   const std::vector<std::pair<std::string, std::string>>& labels,
                   double value);

}  // namespace ehdoe::core::metrics
