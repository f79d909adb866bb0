// Distributed evaluation walkthrough: shard a whole DoE/RSM flow across
// eval-server daemons. For a self-contained run this example hosts two
// loopback shards in-process (in production each would be an
// `ehdoe-eval-server` on its own machine), then drives the standard S1
// flow through them — the client never invokes the simulator locally.
//
// Two environment overrides turn the walkthrough into a scriptable smoke
// test of a real farm (the CI trace smoke drives it this way):
//   EHDOE_TEST_ENDPOINTS  comma-separated host:port list — use these
//                         external eval-servers instead of hosting shards
//                         in-process (they must serve the S1/120s
//                         fingerprint);
//   EHDOE_TRACE_FILE      record the client-side trace here (merge with
//                         the servers' --trace files via ehdoe-trace);
//   EHDOE_EVENT_LOG       append the client-side event journal (JSONL)
//                         here; under EHDOE_TRACE_FILE the same incidents
//                         are trace instants too;
//   EHDOE_STORE_ENDPOINT  host:port of an ehdoe-store-server — consult
//                         the shared result store before simulating and
//                         publish fresh results back, so a second run
//                         against the same store simulates nothing;
//   EHDOE_JSON_STATS      non-empty prints one machine-parseable
//                         "EHDOE_STATS_JSON {...}" line with the flow's
//                         simulation/cache counters (the CI store smoke
//                         asserts on it).
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/toolkit.hpp"
#include "net/eval_server.hpp"

using namespace ehdoe;
using namespace ehdoe::core;

int main() {
    const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, 120.0);
    const std::string fingerprint = sc.fingerprint();

    DesignFlow::Options o;
    o.cache_fingerprint = fingerprint;
    if (const char* trace = std::getenv("EHDOE_TRACE_FILE"); trace && *trace) {
        o.trace_file = trace;
    }
    if (const char* events = std::getenv("EHDOE_EVENT_LOG"); events && *events) {
        o.event_log_file = events;
    }
    if (const char* store = std::getenv("EHDOE_STORE_ENDPOINT"); store && *store) {
        o.store_endpoint = store;
        std::cout << "using shared result store at " << store << "\n";
    }

    // Two single-worker shards on ephemeral loopback ports — unless
    // EHDOE_TEST_ENDPOINTS points at external daemons. Equivalent CLI:
    //   ehdoe-eval-server --scenario S1 --duration 120 --port <p> --workers 1
    std::vector<std::unique_ptr<net::EvalServer>> shards;
    if (const char* ext = std::getenv("EHDOE_TEST_ENDPOINTS"); ext && *ext) {
        std::stringstream specs(ext);
        std::string spec;
        while (std::getline(specs, spec, ',')) {
            if (!spec.empty()) o.endpoints.push_back(spec);
        }
        if (o.endpoints.empty()) {
            std::cerr << "EHDOE_TEST_ENDPOINTS is set but names no endpoints\n";
            return 1;
        }
        std::cout << "using " << o.endpoints.size() << " external shard(s)\n";
    } else {
        for (int i = 0; i < 2; ++i) {
            net::EvalServerOptions so;
            so.workers = 1;
            so.fingerprint = fingerprint;
            shards.push_back(std::make_unique<net::EvalServer>(sc.make_simulation(), so));
            shards.back()->start();
            std::cout << "shard " << i << " listening on 127.0.0.1:" << shards.back()->port()
                      << "\n";
        }
        for (const auto& s : shards) {
            o.endpoints.push_back("127.0.0.1:" + std::to_string(s->port()));
        }
    }

    // Instrument the local simulation so the "client simulations" row below
    // is a measurement, not an assumption — with endpoints configured this
    // functor must never run.
    auto local_calls = std::make_shared<std::atomic<std::size_t>>(0);
    doe::Simulation counted = [inner = sc.make_simulation(), local_calls](const num::Vector& x) {
        local_calls->fetch_add(1);
        return inner(x);
    };

    // The flow is configured, not rewritten: Options::endpoints swaps the
    // local thread pool for the sharded remote service, and the usual
    // persistent-cache options stack on top unchanged. Scoped so the
    // runner's destructor flushes the trace file before we report.
    {
        DesignFlow flow(sc.design_space(), counted, o);
        flow.run_ccd();
        const auto outcome = flow.optimize(
            kRespPackets, true, {{kRespDowntime, -1e300, 0.5}, {kRespVmin, 2.0, 1e300}});

        Table t("Distributed S1 flow: who did the work?");
        t.headers({"where", "points"});
        for (std::size_t i = 0; i < shards.size(); ++i) {
            t.row().cell("shard " + std::to_string(i)).cell(shards[i]->points_served());
        }
        t.row().cell("client simulations").cell(local_calls->load());
        t.print(std::cout);

        std::cout << "\nbatch engine: " << flow.batch_stats().simulations
                  << " remote simulations, " << flow.batch_stats().cache_hits
                  << " cache hits\nbest packets (confirmed): "
                  << outcome.confirmed.value_or(-1.0) << "\n";

        if (const char* json = std::getenv("EHDOE_JSON_STATS"); json && *json) {
            std::cout << "EHDOE_STATS_JSON {\"simulations\": "
                      << flow.batch_stats().simulations
                      << ", \"cache_hits\": " << flow.batch_stats().cache_hits
                      << ", \"points\": " << flow.batch_stats().points << "}\n";
        }
    }

    for (auto& s : shards) s->stop();
    if (!o.trace_file.empty()) std::cout << "client trace written to " << o.trace_file << "\n";
    return 0;
}
