// ehdoe/core/telemetry.hpp
//
// End-to-end observability for the toolkit: one process-wide recorder for
// spans, counters and incidents, plus mergeable latency histograms. Three
// consumers, one module:
//
//  * Tracing — named spans with categories and args, recorded into
//    per-thread buffers with monotonic microsecond timestamps and exported
//    as Chrome trace-event JSON (load the file in chrome://tracing or
//    Perfetto). Compiled in everywhere but a no-op null sink until
//    enable()d: a disabled Span costs one relaxed atomic load, records
//    nothing, and allocates nothing, so instrumentation stays in the hot
//    paths permanently.
//
//  * Incidents — an Event (a redial, a rejoin, an exec relaunch, a
//    segment quarantine, ...) is recorded once and lands in every sink that
//    is on: as a trace instant when tracing is enabled, and as one JSONL
//    line in every open Journal. Both carry the same monotonic timestamp,
//    so a traced daemon's incidents shift onto a merged timeline with the
//    rest of its trace.
//
//  * Latency histograms — log-bucketed microsecond counters that merge by
//    bucket addition, so per-server eval-latency distributions travel the
//    stats frame and aggregate farm-wide without ever shipping raw
//    samples. Percentiles are exact-rank over the recorded counts
//    (resolution = the bucket width at that magnitude, ~6%).
//
// Determinism contract: telemetry is strictly observational. Nothing here
// feeds back into scheduling, sharding or evaluation — results and shard
// assignment are bitwise identical with tracing and journals on or off.
// (Histograms on the eval servers record always — they are monitoring
// state, like the stats counters, and deliberately stay outside the
// contract.)
//
// Threading: recording is thread-safe (each thread appends to its own
// buffer under its own lock; buffers of exited threads are retained until
// reset(); journal lines are written whole under one lock).
// LatencyHistogram itself is NOT internally synchronized — callers that
// share one across threads guard it, same as any counter.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace ehdoe::core::telemetry {

// ---------------------------------------------------------------------------
// Global recorder switch + clock
// ---------------------------------------------------------------------------

/// True once enable() ran; checked (relaxed) by every record site.
bool enabled();
void enable();
void disable();
/// Drop every recorded event (all threads, including exited ones).
void reset();

/// Monotonic microseconds since this process's telemetry epoch (first use).
/// The trace-merge tool aligns client and server epochs via the clock
/// sample every welcome frame carries.
std::uint64_t now_us();

/// Label this process in exported traces (Chrome "process_name" metadata)
/// and in the "process" field of journal lines ("ehdoe" until set).
void set_process_label(const std::string& label);

/// Events recorded so far across all thread buffers.
std::size_t event_count();

/// Export everything recorded so far as one Chrome trace-event JSON file
/// ({"traceEvents":[...]}). False on I/O failure. Safe while other threads
/// keep recording (their later events are simply not in this snapshot).
bool write_json(const std::string& path);

// ---------------------------------------------------------------------------
// Spans, instants and counters
// ---------------------------------------------------------------------------

/// RAII complete-event span: construction stamps the start, destruction
/// records one "X" event with the measured duration. `name` and `cat` must
/// be string literals (stored by pointer; the recorder outlives all spans).
/// args() render into the event's JSON args object.
class Span {
public:
    Span(const char* name, const char* cat);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void arg(const char* key, std::uint64_t value);
    void arg(const char* key, std::int64_t value);
    void arg(const char* key, double value);
    void arg(const char* key, const std::string& value);

private:
    const char* name_;
    const char* cat_;
    std::uint64_t start_ = 0;
    std::string args_;  ///< pre-rendered `"k":v` fragments, comma-joined
    bool live_ = false;
};

/// One zero-duration "i" event.
void instant(const char* name, const char* cat);
/// One "C" counter sample (renders as a stacked chart in the viewer).
void counter(const char* name, const char* cat, double value);

// ---------------------------------------------------------------------------
// Incidents: one Event, two sinks
// ---------------------------------------------------------------------------

/// One operationally significant incident, recorded on destruction into
/// every sink that was on at construction: a trace instant (name `kind`,
/// category "event", the fields as args) while tracing is enabled, and one
/// line in every open Journal:
///
///   {"t_us":12345,"wall_ms":1726...,"process":"ehdoe-eval-server",
///    "kind":"redial","endpoint":"127.0.0.1:4217"}
///
/// `t_us` is now_us() at construction and equals the instant's ts;
/// `wall_ms` is wall-clock milliseconds since the UNIX epoch; fields follow
/// in insertion order. `kind` must be a string literal (stored by pointer,
/// like span names). With both sinks off an Event checks two switches and
/// writes nothing, so emission sites build one unconditionally.
class Event {
public:
    explicit Event(const char* kind);
    ~Event();
    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

    Event& field(const char* key, const std::string& value);
    Event& field(const char* key, const char* value);
    Event& field(const char* key, std::uint64_t value);
    Event& field(const char* key, double value);

private:
    const char* kind_;
    std::uint64_t t_us_ = 0;
    std::string fields_;  ///< pre-rendered `"k":v` fragments, comma-joined
    bool trace_ = false;
    bool journal_ = false;
};

/// A scoped JSONL sink for Events: while a Journal exists, every Event is
/// appended to its file as one line (one fwrite + fflush). The file opens
/// for appending and close-on-exec, so launched simulators never inherit
/// it. Journals on the same file (any spelling of its path) share one open
/// descriptor, reference-counted, so each line is written once; the last
/// one destroyed closes it. Throws std::runtime_error naming the path when
/// the file cannot be opened.
class Journal {
public:
    explicit Journal(const std::string& path);
    ~Journal();
    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

private:
    std::FILE* stream_ = nullptr;  ///< the shared stream this Journal holds a reference on
};

// ---------------------------------------------------------------------------
// Log-bucketed latency histogram
// ---------------------------------------------------------------------------

/// Microsecond latency histogram: exact linear buckets below 16 µs, then
/// 16 sub-buckets per power of two (≤ ~6.25% relative bucket width at any
/// magnitude), covering the full u64 range in kBuckets counters. Two
/// histograms merge by adding counts bucket-wise, so per-shard
/// distributions aggregate farm-wide losslessly.
class LatencyHistogram {
public:
    /// 16 linear + 60 octaves x 16 sub-buckets (first octave covered by the
    /// linear region).
    static constexpr std::size_t kBuckets = 976;

    static std::size_t bucket_index(std::uint64_t us);
    /// Smallest value mapping to `index` — the reported percentile value.
    static std::uint64_t bucket_floor(std::size_t index);

    void record_us(std::uint64_t us);
    void record_seconds(double seconds);

    /// Add `other`'s counts into this histogram.
    void merge(const LatencyHistogram& other);
    /// Remove `earlier`'s counts (an earlier snapshot of the same
    /// histogram) — the per-interval delta used by benches.
    void subtract(const LatencyHistogram& earlier);
    /// Add `count` samples to bucket `index` (wire decode). Throws
    /// std::out_of_range on index >= kBuckets.
    void add_bucket(std::size_t index, std::uint64_t count);

    std::uint64_t total() const { return total_; }

    /// Exact-rank percentile (p in [0,100]) in microseconds: the floor of
    /// the bucket holding the ceil(p/100 * total)-th sample. 0 when empty.
    double percentile_us(double p) const;

    /// Non-zero buckets as (index, count) pairs — the wire representation.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sparse() const;

private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t total_ = 0;
};

}  // namespace ehdoe::core::telemetry
