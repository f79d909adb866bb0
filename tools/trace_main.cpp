// ehdoe-trace — merge client + server traces into one timeline.
//
// Takes the Chrome trace-event JSON a traced run wrote on the client side
// (RunnerOptions::trace_file / DesignFlow::Options::trace_file) plus the
// per-shard traces of the eval-servers it talked to (ehdoe-eval-server
// --trace), shifts every server's events onto the client clock (the
// handshake's clock sample, see core/trace_merge.hpp), and writes one
// merged trace any Chrome-trace viewer (chrome://tracing, Perfetto)
// renders as a lane per process:
//
//   ehdoe-trace --client run.json --server shard1.json --server shard2.json
//               --output merged.json
//
// A traced process records its incidents (redials, exec relaunches, ...)
// as instants in its own trace, so a shard's incidents shift onto the
// client clock with the rest of its trace.
//
// Flags:
//   --client FILE     the client-side trace (required)
//   --server FILE     one per shard trace; repeatable (none is fine — the
//                     client trace alone still normalizes + summarizes)
//   --output FILE     merged trace destination (default: trace_merged.json)
//   --quiet           suppress the per-batch critical-path summary
//
// The summary (stdout) gives, per client batch: wall time, server evals
// covered, the busiest shard's busy time and the longest network receive.
// Clock-anchor problems (a shard the client never dialled) are warnings
// on stderr; the shard merges unshifted.
//
// Exit status: 0 on success (warnings included), 1 on unreadable or
// malformed input, 2 on usage errors.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/trace_merge.hpp"

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " --client trace.json [--server shard.json ...]\n"
                 "       [--output merged.json] [--quiet]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string client_path;
    std::vector<std::string> server_paths;
    std::string output_path = "trace_merged.json";
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) return nullptr;
            return argv[++i];
        };
        if (arg == "--client") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            client_path = v;
        } else if (arg == "--server") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            server_paths.push_back(v);
        } else if (arg == "--output") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            output_path = v;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (client_path.empty()) return usage(argv[0]);

    try {
        const ehdoe::core::TraceMergeResult merged =
            ehdoe::core::merge_trace_files(client_path, server_paths);
        for (const std::string& warning : merged.warnings) {
            std::cerr << "ehdoe-trace: warning: " << warning << "\n";
        }
        std::ofstream out(output_path, std::ios::binary | std::ios::trunc);
        out << merged.json;
        out.flush();
        if (!out) {
            std::cerr << "ehdoe-trace: cannot write '" << output_path << "'\n";
            return 1;
        }
        std::cout << "merged " << merged.client_events << " client + " << merged.server_events
                  << " server events (" << merged.eval_spans << " evals, " << merged.batches
                  << " batches) -> " << output_path << "\n";
        if (!quiet && !merged.summary.empty()) std::cout << merged.summary;
    } catch (const std::exception& e) {
        std::cerr << "ehdoe-trace: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
