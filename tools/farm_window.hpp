// ehdoe-farm's windows: what one endpoint did between two of its polls.
//
// A daemon's stats reply carries lifetime counters and its lifetime
// latency histogram only, so a window is the difference of two replies
// from the same endpoint: the serve rate, the p50/p99 of the points served
// in between (LatencyHistogram::subtract) and the store's hit rate. There
// is no window when either poll is missing (a first poll, or the endpoint
// was down) or when the daemon restarted in between, which shows as its
// uptime or any of its counters going down. History from before a
// poller's first poll is not kept anywhere.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/telemetry.hpp"
#include "net/wire.hpp"

namespace ehdoe::tools {

struct Window {
    /// Shards: points served per second over the window.
    double rate = 0.0;
    /// Shards: percentiles of the points the window evaluated (bucket
    /// floors, microseconds); empty when it evaluated none.
    std::optional<double> p50_us;
    std::optional<double> p99_us;
    /// Stores: get_hits / gets_served over the window; empty when it
    /// served no get.
    std::optional<double> hit_rate;
};

namespace detail {

using Histogram = core::telemetry::LatencyHistogram;

/// The reply's histogram; none when a bucket index is past the telemetry
/// histogram's, which the wire's looser kMaxHistogramBuckets admits.
inline std::optional<Histogram> histogram_of(const net::ShardStats& stats) {
    Histogram h;
    for (const auto& [index, count] : stats.latency_buckets) {
        if (index >= Histogram::kBuckets) return std::nullopt;
        h.add_bucket(index, count);
    }
    return h;
}

/// The lifetime counters of a reply, each of which only grows while its
/// daemon runs.
inline std::vector<std::uint64_t> counters(const net::ShardStats& s) {
    return {s.points_served,   s.points_failed,    s.handshakes_rejected,
            s.worker_respawns, s.points_timed_out, s.connections_accepted};
}

inline std::vector<std::uint64_t> counters(const net::StoreStats& s) {
    return {s.gets_served, s.get_hits, s.puts_received, s.records_appended, s.connections_accepted};
}

/// The uptime between two polls; none when it did not advance or a counter
/// went down.
template <typename Stats>
std::optional<double> span(const Stats& prev, const Stats& cur) {
    if (!(cur.uptime_seconds > prev.uptime_seconds)) return std::nullopt;
    const std::vector<std::uint64_t> before = counters(prev);
    const std::vector<std::uint64_t> after = counters(cur);
    for (std::size_t i = 0; i < after.size(); ++i) {
        if (after[i] < before[i]) return std::nullopt;
    }
    return cur.uptime_seconds - prev.uptime_seconds;
}

}  // namespace detail

/// A shard's window between its polls `prev` and `cur` (null when missing).
inline std::optional<Window> window(const net::ShardStats* prev, const net::ShardStats* cur) {
    if (!prev || !cur) return std::nullopt;
    const std::optional<double> seconds = detail::span(*prev, *cur);
    if (!seconds) return std::nullopt;
    // Every bucket is a counter too: a bucket that went down leaves the
    // clamped difference holding more samples than the totals differ by.
    const std::optional<detail::Histogram> before = detail::histogram_of(*prev);
    std::optional<detail::Histogram> delta = detail::histogram_of(*cur);
    if (!before || !delta || delta->total() < before->total()) return std::nullopt;
    const std::uint64_t evaluated = delta->total() - before->total();
    delta->subtract(*before);
    if (delta->total() != evaluated) return std::nullopt;

    Window w;
    w.rate = static_cast<double>(cur->points_served - prev->points_served) / *seconds;
    if (evaluated > 0) {
        w.p50_us = delta->percentile_us(50.0);
        w.p99_us = delta->percentile_us(99.0);
    }
    return w;
}

/// A store's window between its polls `prev` and `cur` (null when missing).
inline std::optional<Window> window(const net::StoreStats* prev, const net::StoreStats* cur) {
    if (!prev || !cur || !detail::span(*prev, *cur)) return std::nullopt;
    Window w;
    const std::uint64_t gets = cur->gets_served - prev->gets_served;
    if (gets > 0) {
        w.hit_rate = static_cast<double>(cur->get_hits - prev->get_hits) / static_cast<double>(gets);
    }
    return w;
}

}  // namespace ehdoe::tools
