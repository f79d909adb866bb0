// ehdoe-eval-server — one shard of the distributed evaluation service.
//
// Hosts a canonical scenario's node co-simulation behind the TCP wire
// protocol (net/eval_server.hpp) so any number of net::RemoteBackend
// clients can shard design evaluations across machines:
//
//   ehdoe-eval-server --scenario S1 --port 4217 --workers 4
//   ehdoe-eval-server --scenario S2 --duration 600
//   ehdoe-eval-server --recipe s1.recipe --port 4217
//
// Flags:
//   --scenario S1|S2|S3   canonical scenario to serve (default S1; unused
//                         in exec mode — the recipe names the simulator)
//   --duration SECONDS    simulation horizon override (default: scenario's)
//   --host ADDR           interface to bind (default 127.0.0.1)
//   --port PORT           TCP port; 0 picks an ephemeral port (default 0)
//   --workers N           evaluation workers, >= 1 (default: all hardware
//                         threads when the flag is omitted)
//   --recipe FILE         exec mode: launch the external co-simulator this
//                         recipe describes once per point, instead of
//                         evaluating the scenario in-process
//   --fingerprint STR     handshake identity override (default: the
//                         scenario fingerprint, or "exec:" + the recipe's
//                         content hash in exec mode)
//   --replicates N        replicates averaged per point (default 1)
//   --trace FILE          record this shard's trace spans (accept/
//                         handshake/eval, core/telemetry.hpp) and write a
//                         Chrome trace-event JSON file on shutdown; merge
//                         with the client's trace via ehdoe-trace
//   --metrics-interval S  sample the health-plane metrics ring every S
//                         seconds (core/metrics.hpp; served in the
//                         stats reply, rendered by ehdoe-farm top /
//                         export). Default: disabled.
//   --events FILE         append this shard's event journal (JSONL,
//                         core::telemetry::Journal) here; with --trace the
//                         same incidents are instants in the trace, which
//                         ehdoe-trace shifts onto the client's timeline
//   --print-fingerprint   print the served fingerprint and exit
//
// On startup the daemon prints one "listening on HOST:PORT ..." line
// (machine-readable; tests and scripts scrape the port), then serves until
// SIGINT/SIGTERM. Both stay blocked in every thread from before the server
// starts; the main thread takes the first with sigwait, so one sent any
// time after the line stops the daemon at once and cleanly.
#include <signal.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "core/scenario.hpp"
#include "core/telemetry.hpp"
#include "exec/sim_recipe.hpp"
#include "net/eval_server.hpp"
#include "flag_parse.hpp"

using namespace ehdoe;

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--scenario S1|S2|S3] [--duration s] [--host addr] [--port p]\n"
                 "       [--workers n] [--recipe file]\n"
                 "       [--fingerprint str] [--replicates n] [--trace file]\n"
                 "       [--metrics-interval s] [--events file] [--print-fingerprint]\n";
    return 2;
}

int flag_error(const std::string& message) {
    std::cerr << "ehdoe-eval-server: " << message << "\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string scenario_name = "S1";
    double duration = -1.0;
    bool print_fingerprint = false;
    std::string recipe_path;
    std::string fingerprint_override;
    std::string trace_path;
    std::string events_path;
    net::EvalServerOptions options;
    options.workers = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) return nullptr;
            return argv[++i];
        };
        if (arg == "--scenario") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            scenario_name = v;
        } else if (arg == "--duration") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!tools::parse_double_arg(v, duration) || duration <= 0.0)
                return flag_error("--duration must be a positive number of seconds, got '" +
                                  std::string(v) + "'");
        } else if (arg == "--host") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            options.host = v;
        } else if (arg == "--port") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            // atoi truncates out-of-range ports mod 2^16 and folds garbage
            // to 0 — both would bind an unintended port instead of failing.
            if (!tools::parse_port_arg(v, options.port))
                return flag_error("--port must be an integer in [0, 65535], got '" +
                                  std::string(v) + "'");
        } else if (arg == "--workers") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!tools::parse_count_arg(v, 1, options.workers))
                return flag_error("--workers must be a positive integer (omit the flag "
                                  "for all hardware threads), got '" +
                                  std::string(v) + "'");
        } else if (arg == "--replicates") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!tools::parse_count_arg(v, 1, options.replicates))
                return flag_error("--replicates must be a positive integer, got '" +
                                  std::string(v) + "'");
        } else if (arg == "--recipe") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            recipe_path = v;
        } else if (arg == "--fingerprint") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            fingerprint_override = v;
        } else if (arg == "--trace") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            trace_path = v;
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
        } else if (arg == "--print-fingerprint") {
            print_fingerprint = true;
        } else {
            return usage(argv[0]);
        }
    }

    core::Simulation sim;
    std::string workload;
    if (!recipe_path.empty()) {
        try {
            options.recipe = exec::SimRecipe::parse_file(recipe_path);
        } catch (const std::exception& e) {
            return flag_error(e.what());
        }
        options.fingerprint = "exec:" + options.recipe->fingerprint();
        workload = "recipe=" + recipe_path;
    } else {
        core::ScenarioId id;
        try {
            id = core::scenario_from_name(scenario_name);
        } catch (const std::exception& e) {
            return flag_error(e.what());
        }
        const core::Scenario scenario = core::Scenario::make(id, duration);
        options.fingerprint = scenario.fingerprint();
        sim = scenario.make_simulation();
        workload = "scenario=" + scenario_name;
    }
    // Test hook: EHDOE_TEST_SIM_DELAY_MS stretches every evaluation by a
    // fixed sleep so smoke scripts can kill a shard mid-run on purpose (the
    // CI metrics smoke forces a failover this way and asserts the journal).
    // Ignored in exec mode — there the recipe owns the simulator's pacing.
    if (const char* delay = std::getenv("EHDOE_TEST_SIM_DELAY_MS"); delay && *delay && sim) {
        const double delay_ms = std::atof(delay);
        if (delay_ms > 0.0) {
            sim = [inner = std::move(sim), delay_ms](const core::Vector& x) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(delay_ms));
                return inner(x);
            };
        }
    }
    if (!fingerprint_override.empty()) options.fingerprint = fingerprint_override;
    if (print_fingerprint) {
        std::cout << options.fingerprint << "\n";
        return 0;
    }

    try {
        core::telemetry::set_process_label("ehdoe-eval-server");
        if (!trace_path.empty()) core::telemetry::enable();
        std::optional<core::telemetry::Journal> journal;
        if (!events_path.empty()) {
            try {
                journal.emplace(events_path);
            } catch (const std::exception&) {
                return flag_error("cannot open --events file '" + events_path + "'");
            }
        }
        sigset_t stop_signals;
        sigemptyset(&stop_signals);
        sigaddset(&stop_signals, SIGINT);
        sigaddset(&stop_signals, SIGTERM);
        pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);  // before any thread
        net::EvalServer server(std::move(sim), options);
        server.start();
        const std::string endpoint_label =
            options.host + ":" + std::to_string(server.port());
        // In the trace this is the instant the merge tool
        // (core/trace_merge.hpp) matches against the client's handshake
        // spans to anchor this shard's clock.
        core::telemetry::Event("listening").field("endpoint", endpoint_label);
        std::cout << "listening on " << endpoint_label << " "
                  << workload << " workers=" << server.options().workers
                  << " replicates=" << options.replicates << " fingerprint="
                  << options.fingerprint << std::endl;

        int signal_number = 0;
        sigwait(&stop_signals, &signal_number);
        std::cout << "shutting down: served " << server.points_served() << " points ("
                  << server.points_failed() << " failed) over " << server.connections_accepted()
                  << " connections\n";
        server.stop();
        if (!trace_path.empty() && !core::telemetry::write_json(trace_path)) {
            std::cerr << "ehdoe-eval-server: cannot write trace file '" << trace_path << "'\n";
        }
    } catch (const std::exception& e) {
        std::cerr << "ehdoe-eval-server: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
