// ehdoe/core/trace_merge.hpp
//
// Merges the client-side trace of a distributed run with the traces of the
// eval-server shards it talked to, producing one Chrome trace-event JSON
// timeline (the ehdoe-trace tool, tools/trace_main.cpp, is a thin CLI over
// this). The pieces come from independent processes with independent
// monotonic clocks, so the merge has to re-anchor time:
//
//  * every welcome carries the server's telemetry clock sample, and the
//    client's handshake span records `offset_us = client_now - server_now`
//    per endpoint (net/remote_backend.cpp);
//  * each server trace carries a "listening" instant naming its endpoint
//    (the daemon's startup Event, ehdoe-eval-server --trace), which is
//    matched against the client's handshake endpoints — exact label first,
//    then a ":port" suffix so "127.0.0.1:9001" still matches a server that
//    printed "0.0.0.0:9001";
//  * the matched server's events are shifted onto the client clock — its
//    incidents (telemetry::Event instants: exec relaunches, quarantines,
//    ...) with the rest. An unmatched server merges unshifted with a
//    warning — visible, never dropped.
//
// Processes are renumbered (client pid 1, servers 2..) so every input gets
// its own lane in the viewer even when the pieces were recorded by the
// same pid (in-process test servers). Alongside the merged JSON the result
// carries a per-batch critical-path summary: for every client batch span,
// how many server evals it covered, the busiest shard's busy time and the
// longest network receive — the numbers that say where a slow batch's
// wall time actually went.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ehdoe::core {

struct TraceMergeResult {
    std::string json;                ///< merged Chrome trace-event JSON
    std::size_t client_events = 0;   ///< events from the client trace
    std::size_t server_events = 0;   ///< events from all server traces
    std::size_t eval_spans = 0;      ///< server "eval" spans (one per point)
    std::size_t batches = 0;         ///< client "batch" spans
    std::vector<std::string> warnings;  ///< unmatched servers, missing offsets
    std::string summary;             ///< per-batch critical-path text
};

/// Merge one client trace with any number of server traces (all Chrome
/// trace-event JSON strings). Throws std::runtime_error on malformed
/// input; clock-anchor problems are warnings, not errors.
TraceMergeResult merge_traces(const std::string& client_json,
                              const std::vector<std::string>& server_jsons);

/// File-based convenience: reads every path and merges. Throws
/// std::runtime_error naming the unreadable or malformed file.
TraceMergeResult merge_trace_files(const std::string& client_path,
                                   const std::vector<std::string>& server_paths);

}  // namespace ehdoe::core
