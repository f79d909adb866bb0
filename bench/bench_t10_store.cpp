// T10 — the farm-wide result store: the S1 CCD through the tiered
// result-reuse stack against the in-process reference. One cold run
// populates both warm tiers at once (a persistent-cache snapshot file and
// a loopback ehdoe-store-server daemon), then each tier serves a fresh
// runner alone:
//
//   [0] in-process (reference)   the raw simulation bill
//   [1] cold (store+snapshot)    full bill + publish to both tiers
//   [2] store warm               a second farm run: simulations must be 0
//   [3] snapshot warm            the per-machine tier, for comparison
//
// The contract checked (and gated in bench/history/gates.json): every row
// bitwise identical to the reference, the warm rows simulation-free, and
// the store holding exactly the design's distinct points. Appends the
// sweep as one JSONL line to bench/history/t10_store.jsonl.
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/thread_pool.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "store/store_server.hpp"

using namespace ehdoe;
using namespace ehdoe::core;

namespace {

struct SweepPoint {
    std::string label;
    double wall_seconds = 0.0;
    double speedup = 0.0;
    std::size_t simulations = 0;
    std::size_t cache_hits = 0;
    bool identical = false;
};

}  // namespace

int main() {
    const std::size_t hw = ThreadPool::hardware_threads();
    std::cout << "T10 - the shared result store over the S1 CCD (48 runs, 600 s\n"
                 "horizon; "
              << hw << " hardware threads). In-process reference vs a cold run\n"
                 "publishing to a loopback store daemon + snapshot file, then each\n"
                 "warm tier serving a fresh runner alone.\n\n";

    const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, 600.0);
    const doe::DesignSpace space = sc.design_space();
    const doe::Design design = doe::central_composite(space.dimension());

    const std::string scratch =
        (std::filesystem::temp_directory_path() /
         ("ehdoe-bench-t10-" + std::to_string(::getpid())))
            .string();
    const std::string snapshot = scratch + "/snapshot.ehcache";
    std::filesystem::create_directories(scratch);

    store::StoreServerOptions so;
    so.dir = scratch + "/store";
    so.verbose = false;
    // Health-plane sampling stays live but parked (one manual sample per
    // row instead of a timer) so the ledger records the store's own
    // hit-rate view of the sweep — the same ring `ehdoe-farm top` renders.
    so.metrics_interval_seconds = 3600.0;
    store::StoreServer server(std::move(so));
    server.start();
    const std::string store_endpoint = "127.0.0.1:" + std::to_string(server.port());

    // Row configurations: cache_file / store_endpoint per row as in the
    // header comment; an empty string leaves that tier out.
    struct RowConfig {
        std::string label;
        std::string cache_file;
        std::string store_endpoint;
    };
    const std::vector<RowConfig> rows = {
        {"in-process (reference)", "", ""},
        {"cold (store+snapshot)", snapshot, store_endpoint},
        {"store warm", "", store_endpoint},
        {"snapshot warm", snapshot, ""},
    };

    std::vector<SweepPoint> sweep;
    doe::RunResults reference;
    bool contract_ok = true;
    for (const RowConfig& row : rows) {
        doe::RunnerOptions o;
        o.threads = 1;
        if (!row.cache_file.empty() || !row.store_endpoint.empty()) {
            o.cache_file = row.cache_file;
            o.cache_fingerprint = sc.fingerprint();
            o.store_endpoint = row.store_endpoint;
        }
        const doe::RunResults r =
            doe::BatchRunner(sc.make_simulation(), o).run_design(space, design);

        SweepPoint p;
        p.label = row.label;
        p.wall_seconds = r.wall_seconds;
        p.simulations = r.simulations;
        p.cache_hits = r.cache_hits;
        if (sweep.empty()) {
            reference = r;
            p.speedup = 1.0;
            p.identical = true;
        } else {
            p.speedup = r.wall_seconds > 0.0
                            ? sweep.front().wall_seconds / r.wall_seconds
                            : 0.0;
            // The tier contract: a hit is bitwise what a simulation would
            // have produced, at every tier.
            p.identical = num::approx_equal(r.responses, reference.responses, 0.0);
        }
        contract_ok = contract_ok && p.identical;
        sweep.push_back(p);
        server.sample_metrics_now();
    }
    // The warm rows must be simulation-free, and the store must hold
    // exactly the design's distinct points (48 runs, 4 centre replicates).
    contract_ok = contract_ok && sweep[2].simulations == 0 && sweep[3].simulations == 0 &&
                  server.log().size() == reference.simulations;
    const std::size_t store_keys = server.log().size();
    const std::uint64_t store_appended = server.records_appended();
    const std::uint64_t store_gets = server.gets_served();
    const std::uint64_t store_hits = server.get_hits();
    const double store_hit_rate =
        store_gets > 0 ? static_cast<double>(store_hits) / static_cast<double>(store_gets)
                       : 0.0;
    const std::size_t metrics_rows = server.metrics_snapshot().rows.size();
    server.stop();
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);

    Table t("T10: S1 CCD (48 points) through the tiered result store");
    t.headers({"configuration", "wall", "speedup", "simulations", "cache hits",
               "bitwise identical"});
    for (const auto& p : sweep) {
        t.row()
            .cell(p.label)
            .cell(format_seconds(p.wall_seconds))
            .cell(p.speedup, 2)
            .cell(p.simulations)
            .cell(p.cache_hits)
            .cell(p.identical ? "yes" : "NO");
    }
    t.print(std::cout);

    std::cout << "\nstore after the sweep: " << store_keys << " keys, " << store_appended
              << " records appended, " << store_hits << "/" << store_gets
              << " gets hit (" << metrics_rows << " metrics samples)\n";
    std::cout << "\nTier contract (bitwise-identical responses from every tier; the\n"
                 "warm runs simulation-free; the store holding every distinct point):\n"
              << (contract_ok ? "HOLDS" : "VIOLATED - BUG") << "\n";

    std::ostringstream json;
    json << "{\"bench\": \"t10_store\", \"timestamp\": " << std::time(nullptr)
         << ", \"design_points\": " << design.runs() << ", \"hardware_threads\": " << hw
         << ", \"contract_ok\": " << (contract_ok ? "true" : "false")
         << ", \"store_keys\": " << store_keys << ", \"store_gets_served\": " << store_gets
         << ", \"store_get_hits\": " << store_hits << ", \"store_hit_rate\": " << store_hit_rate
         << ", \"metrics_rows\": " << metrics_rows << ", \"sweep\": [";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto& p = sweep[i];
        json << (i ? ", " : "") << "{\"backend\": \"" << p.label
             << "\", \"wall_seconds\": " << p.wall_seconds << ", \"speedup\": " << p.speedup
             << ", \"simulations\": " << p.simulations << ", \"cache_hits\": " << p.cache_hits
             << "}";
    }
    json << "]}";
    append_history_or_warn("t10_store.jsonl", json.str(), std::cout);

    return contract_ok ? 0 : 1;
}
