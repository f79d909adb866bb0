// T7 — evaluation-backend sweep: the same S1 CCD run through the local
// layers of the core::EvalBackend stack — in-process thread pool (1 and all
// hardware threads) and a persistent on-disk cache both cold (populating)
// and warm (a fresh runner restoring the snapshot, as a new process would). Checks the layer
// contract: bitwise-identical responses everywhere, and a warm cache that
// serves the whole design without a single simulation.
//
// Appends the sweep as one JSONL line to the tracked perf-trajectory
// ledger bench/history/t7_backends.jsonl (see bench/history/README.md).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <ctime>
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

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);

    const std::size_t hw = ThreadPool::hardware_threads();
    std::cout << "T7 - evaluation backends over the S1 CCD (48 runs, 600 s horizon;\n"
              << hw << " hardware threads). In-process vs persistent cache.\n\n";

    const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, 600.0);
    const doe::DesignSpace space = sc.design_space();
    const doe::Design design = doe::central_composite(space.dimension());

    const std::string cache_file = "BENCH_T7_CACHE.ehcache";
    std::remove(cache_file.c_str());  // the cold run must actually be cold

    struct Config {
        std::string label;
        doe::RunnerOptions options;
    };
    std::vector<Config> configs;
    {
        doe::RunnerOptions o;
        configs.push_back({"in-process x1", o});
        o.threads = hw;
        configs.push_back({"in-process x" + std::to_string(hw), o});
        doe::RunnerOptions c;
        c.threads = hw;
        c.cache_file = cache_file;
        c.cache_fingerprint = sc.fingerprint();
        configs.push_back({"persistent cold", c});
        configs.push_back({"persistent warm", c});
    }

    std::vector<SweepPoint> sweep;
    doe::RunResults reference;
    bool contract_ok = true;
    for (const Config& cfg : configs) {
        // A fresh runner per config: the warm-cache row exercises a fresh
        // process's restore path, not a shared in-memory memo.
        doe::BatchRunner runner(sc.make_simulation(), cfg.options);
        const doe::RunResults r = runner.run_design(space, design);

        SweepPoint p;
        p.label = cfg.label;
        p.wall_seconds = r.wall_seconds;
        p.simulations = r.simulations;
        p.cache_hits = r.cache_hits;
        if (sweep.empty()) {
            reference = r;
            p.speedup = 1.0;
            p.identical = true;
        } else {
            p.speedup = sweep.front().wall_seconds / r.wall_seconds;
            // The layer contract: bitwise, not approximately, equal.
            p.identical = num::approx_equal(r.responses, reference.responses, 0.0);
        }
        if (cfg.label == "persistent warm") {
            // The warm run must be simulation-free and all-hits.
            contract_ok = contract_ok && r.simulations == 0 && r.cache_hits == design.runs();
        }
        contract_ok = contract_ok && p.identical;
        sweep.push_back(p);
    }
    std::remove(cache_file.c_str());

    Table t("T7: S1 CCD (48 points) across evaluation backends");
    t.headers({"backend", "wall", "speedup", "simulations", "cache hits", "bitwise identical"});
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

    std::cout << "\nBackend contract (bitwise-identical responses; warm cache: 0 simulations, "
              << design.runs() << " hits): " << (contract_ok ? "HOLDS" : "VIOLATED - BUG")
              << "\n";

    std::ostringstream json;
    json << "{\"bench\": \"t7_backends\", \"timestamp\": " << std::time(nullptr)
         << ", \"design_points\": " << design.runs() << ", \"hardware_threads\": " << hw
         << ", \"contract_ok\": " << (contract_ok ? "true" : "false") << ", \"sweep\": [";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto& p = sweep[i];
        json << (i ? ", " : "") << "{\"backend\": \"" << p.label
             << "\", \"wall_seconds\": " << p.wall_seconds << ", \"speedup\": " << p.speedup
             << ", \"simulations\": " << p.simulations << ", \"cache_hits\": " << p.cache_hits
             << "}";
    }
    json << "]}";
    append_history_or_warn("t7_backends.jsonl", json.str(), std::cout);

    return contract_ok ? 0 : 1;
}
