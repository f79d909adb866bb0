// ehdoe-store-server — the farm-wide shared result store daemon.
//
// Hosts one append-only segment-log store (store/segment_log.hpp) behind
// the store connection kind of the TCP wire protocol, so any number
// of farm runs — on this machine or others — share one content-addressed
// result table and never pay for the same simulation twice:
//
//   ehdoe-store-server --dir /var/lib/ehdoe/store --port 4230
//   ehdoe-store-server --dir store.data --port 0          # ephemeral port
//   ehdoe-store-server --dir store.data --compact         # offline GC
//
// Flags:
//   --dir PATH            segment directory (required; created if needed)
//   --host ADDR           interface to bind (default 127.0.0.1)
//   --port PORT           TCP port; 0 picks an ephemeral port (default 0)
//   --segment-bytes N     rotation threshold per segment (default 8 MiB,
//                         minimum 4096)
//   --compact             rewrite the live table into one fresh segment
//                         chain (dropping superseded records and deleting
//                         quarantined files), print a summary and exit —
//                         run it while no server owns the directory
//   --metrics-interval S  sample the health-plane metrics ring every S
//                         seconds (core/metrics.hpp; served in the
//                         store-stats reply). Default: disabled.
//   --events FILE         append the event journal (JSONL,
//                         core::telemetry::Journal) here — segment
//                         quarantines found by the startup recovery scan
//                         land in it
//
// On startup the daemon prints one "listening on HOST:PORT ..." line
// (machine-readable; tests and scripts scrape the port), then serves until
// SIGINT/SIGTERM. Both stay blocked in every thread from before the server
// starts; the main thread takes the first with sigwait, so one sent any
// time after the line stops the daemon at once and cleanly.
#include <signal.h>

#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "core/telemetry.hpp"
#include "store/store_server.hpp"
#include "flag_parse.hpp"

using namespace ehdoe;

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " --dir path [--host addr] [--port p] [--segment-bytes n] [--compact]\n"
                 "       [--metrics-interval s] [--events file]\n";
    return 2;
}

int flag_error(const std::string& message) {
    std::cerr << "ehdoe-store-server: " << message << "\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    store::StoreServerOptions options;
    std::string events_path;
    bool compact = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) return nullptr;
            return argv[++i];
        };
        if (arg == "--dir") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            options.dir = v;
        } else if (arg == "--host") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            options.host = v;
        } else if (arg == "--port") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!tools::parse_port_arg(v, options.port))
                return flag_error("--port must be an integer in [0, 65535], got '" +
                                  std::string(v) + "'");
        } else if (arg == "--segment-bytes") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!tools::parse_count_arg(v, 4096, options.max_segment_bytes))
                return flag_error("--segment-bytes must be an integer >= 4096, got '" +
                                  std::string(v) + "'");
        } else if (arg == "--metrics-interval") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!tools::parse_double_arg(v, options.metrics_interval_seconds) ||
                options.metrics_interval_seconds <= 0.0)
                return flag_error("--metrics-interval must be a positive number of "
                                  "seconds, got '" +
                                  std::string(v) + "'");
        } else if (arg == "--events") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            events_path = v;
        } else if (arg == "--compact") {
            compact = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (options.dir.empty()) return flag_error("--dir PATH is required");

    core::telemetry::set_process_label("ehdoe-store-server");
    // Open before the recovery scan runs (the StoreServer ctor): a
    // quarantine found on startup must land in the journal too.
    std::optional<core::telemetry::Journal> journal;
    if (!events_path.empty()) {
        try {
            journal.emplace(events_path);
        } catch (const std::exception&) {
            return flag_error("cannot open --events file '" + events_path + "'");
        }
    }

    try {
        if (compact) {
            store::SegmentLogOptions lo;
            lo.max_segment_bytes = options.max_segment_bytes;
            store::SegmentLog log(options.dir, lo);
            const std::size_t keys = log.size();
            const std::size_t before = log.segment_count();
            log.compact();
            std::cout << "compacted " << options.dir << ": " << keys << " keys, "
                      << before << " -> " << log.segment_count() << " segments\n";
            return 0;
        }

        sigset_t stop_signals;
        sigemptyset(&stop_signals);
        sigaddset(&stop_signals, SIGINT);
        sigaddset(&stop_signals, SIGTERM);
        pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);  // before any thread
        store::StoreServer server(options);
        server.start();
        core::telemetry::Event("listening")
            .field("endpoint", options.host + ":" + std::to_string(server.port()));
        const store::SegmentLogCounters restored = server.log().counters();
        std::cout << "listening on " << options.host << ":" << server.port() << " dir="
                  << options.dir << " keys=" << server.log().size() << " segments="
                  << server.log().segment_count() << " quarantined="
                  << restored.quarantined_segments << std::endl;

        int signal_number = 0;
        sigwait(&stop_signals, &signal_number);
        const store::SegmentLogCounters counters = server.log().counters();
        std::cout << "shutting down: " << server.log().size() << " keys, appended "
                  << counters.records_appended << " records, served "
                  << server.gets_served() << " gets (" << server.get_hits()
                  << " hits) over " << server.connections_accepted() << " connections\n";
        server.stop();
    } catch (const std::exception& e) {
        std::cerr << "ehdoe-store-server: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
