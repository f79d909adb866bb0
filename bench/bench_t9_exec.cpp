// T9 — external-simulator evaluation: the S1 CCD driven through the mock
// HDL co-simulator (tools/mock_hdl_sim_main.cpp, one real process per
// point) three ways — in-process reference, exec::ExecBackend launching
// the simulator locally, and exec-over-remote (a loopback eval-server
// started with `--recipe`, hosting the same recipe behind the batch
// wire). The mock prints hexfloats, so all three must land bitwise
// identical; the wall-clock rows measure what process launch and the wire
// each cost on top of the raw arithmetic.
//
// Appends one JSONL line to the tracked perf-trajectory ledger
// bench/history/t9_exec.jsonl (see bench/history/README.md); the CI perf
// gate (ehdoe-bench-check, thresholds in bench/history/gates.json) checks
// its contract bit on every push.
#include <chrono>
#include <ctime>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/telemetry.hpp"
#include "core/thread_pool.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "exec/exec_backend.hpp"
#include "exec/sim_recipe.hpp"
#include "net/eval_server.hpp"

#ifndef EHDOE_MOCK_HDL_SIM
#error "CMake must define EHDOE_MOCK_HDL_SIM (the mock simulator's path)"
#endif

using namespace ehdoe;
using namespace ehdoe::core;

namespace {

/// Recipe text for the S1 workload through the mock co-simulator — the
/// same extractor mix the exec test suite drives (regex and column paths
/// both hot).
std::string s1_recipe_text(double duration) {
    return std::string("command: ") + EHDOE_MOCK_HDL_SIM +
           " --deck {deck}\n"
           "input: deck\n"
           "deck-line: scenario S1\n"
           "deck-line: duration " +
           std::to_string(duration) +
           "\n"
           "deck-line: index {index}\n"
           "deck-line: point {point}\n"
           "output: stdout\n"
           "extract: E_harv regex ^E_harv=(\\S+)$\n"
           "extract: E_cons regex ^E_cons=(\\S+)$\n"
           "extract: E_tune regex ^E_tune=(\\S+)$\n"
           "extract: V_min column values 4\n"
           "extract: downtime column values 5\n"
           "extract: packets column values 6\n";
}

struct SweepPoint {
    std::string label;
    double wall_seconds = 0.0;
    double speedup = 0.0;
    std::size_t simulations = 0;
    std::size_t launches = 0;  ///< real simulator processes spawned
    bool identical = false;
    /// Per-eval latency of this row (bench-local timing for the reference,
    /// ExecRunner's histogram for exec, the server's for exec-over-remote).
    core::telemetry::LatencyHistogram latency;
};

/// "p50/p95/p99 ms" cell of a row's latency distribution.
std::string latency_cell(const core::telemetry::LatencyHistogram& h) {
    if (h.total() == 0) return "-";
    std::ostringstream out;
    out << format_double(h.percentile_us(50.0) / 1000.0, 1) << "/"
        << format_double(h.percentile_us(95.0) / 1000.0, 1) << "/"
        << format_double(h.percentile_us(99.0) / 1000.0, 1);
    return out.str();
}

}  // namespace

int main() {
    const std::size_t hw = ThreadPool::hardware_threads();
    const double duration = 30.0;
    std::cout << "T9 - external-simulator evaluation over the S1 CCD (" << hw
              << " hardware threads).\nIn-process reference vs exec backend "
                 "(one mock co-simulator process per point)\nvs exec-over-remote "
                 "(loopback eval-server hosting the same recipe).\n\n";

    const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, duration);
    const doe::DesignSpace space = sc.design_space();
    const doe::Design design = doe::central_composite(space.dimension());
    const exec::SimRecipe recipe = exec::SimRecipe::parse(s1_recipe_text(duration));
    const std::string fp = "t9-exec-bench";

    std::vector<SweepPoint> sweep;
    doe::RunResults reference;
    bool contract_ok = true;
    auto record = [&](const std::string& label, const doe::RunResults& r,
                      std::size_t launches,
                      const core::telemetry::LatencyHistogram& latency) {
        SweepPoint p;
        p.label = label;
        p.wall_seconds = r.wall_seconds;
        p.simulations = r.simulations;
        p.launches = launches;
        p.latency = latency;
        if (sweep.empty()) {
            reference = r;
            p.speedup = 1.0;
            p.identical = true;
        } else {
            p.speedup = r.wall_seconds > 0.0
                            ? sweep.front().wall_seconds / r.wall_seconds
                            : 0.0;
            // The determinism contract: hexfloat round-trips, so bitwise —
            // not approximately — equal.
            p.identical = num::approx_equal(r.responses, reference.responses, 0.0);
        }
        contract_ok = contract_ok && p.identical;
        sweep.push_back(p);
    };

    // In-process reference — timed locally so this row's percentiles are
    // comparable with the backend-recorded ones below.
    {
        auto local_latency = std::make_shared<core::telemetry::LatencyHistogram>();
        doe::Simulation timed = [inner = sc.make_simulation(),
                                 local_latency](const num::Vector& nat) {
            const auto t0 = std::chrono::steady_clock::now();
            auto responses = inner(nat);
            local_latency->record_seconds(
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
            return responses;
        };
        doe::BatchRunner runner(std::move(timed), doe::RunnerOptions{});
        record("in-process", runner.run_design(space, design), 0, *local_latency);
    }

    // Exec backend: each point is a real mock_hdl_sim process.
    {
        auto backend = std::make_shared<exec::ExecBackend>(recipe, BackendOptions{});
        doe::BatchRunner runner(backend);
        const doe::RunResults r = runner.run_design(space, design);
        record("exec", r, backend->launches(), backend->latency_histogram());
    }

    // Exec-over-remote: a loopback eval-server hosts the recipe; points
    // travel the batch wire, the simulator runs server-side.
    {
        net::EvalServerOptions so;
        so.workers = 2;
        so.fingerprint = fp;
        so.recipe = recipe;
        net::EvalServer server(Simulation{}, so);
        server.start();

        doe::RunnerOptions ro;
        ro.endpoints = {"127.0.0.1:" + std::to_string(server.port())};
        ro.cache_fingerprint = fp;
        doe::BatchRunner runner(Simulation{}, ro);
        const doe::RunResults r = runner.run_design(space, design);
        const std::size_t served = server.points_served();
        const core::telemetry::LatencyHistogram server_latency = server.latency_histogram();
        server.stop();
        record("exec over remote", r, served, server_latency);
        // Exactly-once dispatch across the wire.
        contract_ok = contract_ok && served == r.simulations;
    }

    Table t("T9: S1 CCD (" + std::to_string(design.runs()) +
            " points) through the external co-simulator");
    t.headers({"backend", "wall", "speedup", "simulations", "launches",
               "p50/p95/p99 ms", "bitwise identical"});
    for (const auto& p : sweep) {
        t.row()
            .cell(p.label)
            .cell(format_seconds(p.wall_seconds))
            .cell(p.speedup, 2)
            .cell(p.simulations)
            .cell(p.launches)
            .cell(latency_cell(p.latency))
            .cell(p.identical ? "yes" : "NO");
    }
    t.print(std::cout);

    std::cout << "\nDeterminism contract (exec and exec-over-remote responses bitwise\n"
                 "identical to in-process; every remote point served exactly once): "
              << (contract_ok ? "HOLDS" : "VIOLATED - BUG") << "\n";

    std::ostringstream json;
    json << "{\"bench\": \"t9_exec\", \"timestamp\": " << std::time(nullptr)
         << ", \"design_points\": " << design.runs() << ", \"hardware_threads\": " << hw
         << ", \"contract_ok\": " << (contract_ok ? "true" : "false") << ", \"sweep\": [";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto& p = sweep[i];
        json << (i ? ", " : "") << "{\"backend\": \"" << p.label
             << "\", \"wall_seconds\": " << p.wall_seconds << ", \"speedup\": " << p.speedup
             << ", \"simulations\": " << p.simulations << ", \"launches\": " << p.launches
             << ", \"latency_p50_us\": " << p.latency.percentile_us(50.0)
             << ", \"latency_p95_us\": " << p.latency.percentile_us(95.0)
             << ", \"latency_p99_us\": " << p.latency.percentile_us(99.0) << "}";
    }
    json << "]}";
    append_history_or_warn("t9_exec.jsonl", json.str(), std::cout);

    return contract_ok ? 0 : 1;
}
