// ehdoe/core/metrics.hpp
//
// The farm health plane's reductions, used by `ehdoe-farm`: the straggler
// test over the shards' latency signals, and the Prometheus text helpers
// that render exposition-format metric families (`# HELP`/`# TYPE`
// headers, escaped label values, `%.17g` sample lines), which
// `ehdoe-farm export` composes over every polled endpoint so the daemons
// themselves stay HTTP-free.
//
// A daemon's stats reply carries lifetime counters and its lifetime
// latency histogram only. A view that polls twice takes its windows from
// the difference of the two polls (tools/farm_window.hpp).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ehdoe::core::metrics {

/// The straggler test: entry i is true when signals[i] exceeds `k` times
/// the median of the other entries that hold a signal (an even count
/// averages the middle pair). A 0 signal counts: a shard that serves
/// points in under 1 us reads p99 0. An entry without a signal, or one
/// with no other signal beside it, is never flagged.
std::vector<bool> stragglers(const std::vector<std::optional<double>>& signals, double k);

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
