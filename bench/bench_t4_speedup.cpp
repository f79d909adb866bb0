// T4 — exploration speed: RSM queries vs direct simulation ("once the
// design space is approximated and captured, its exploration is very fast").
// Also runs a google-benchmark microbenchmark of one RSM evaluation.
//
// Appends the per-query costs as one JSONL line to the tracked
// perf-trajectory ledger bench/history/t4_speedup.jsonl (see
// bench/history/README.md).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <ctime>
#include <iostream>
#include <sstream>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/toolkit.hpp"
#include "harvester/harvester_system.hpp"
#include "sim/transient.hpp"

using namespace ehdoe;
using namespace ehdoe::core;

namespace {

double time_one_node_sim(const Scenario& sc) {
    const auto sim = sc.make_simulation();
    const auto space = sc.design_space();
    const num::Vector centre = space.to_natural(num::Vector(6));
    const auto t0 = std::chrono::steady_clock::now();
    const int reps = 50;
    for (int i = 0; i < reps; ++i) benchmark::DoNotOptimize(sim(centre));
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() / reps;
}

double time_circuit_sim_per_second() {
    // Wall time of the Newton-Raphson circuit engine per simulated second —
    // the cost class the paper's HDL simulations live in.
    harvester::HarvesterCircuitParams p;
    harvester::HarvesterCircuit c(p);
    auto accel = [](double t) { return 0.6 * std::sin(2.0 * M_PI * 65.0 * t); };
    sim::TransientEngine eng(c.make_nonlinear_rhs(accel), c.state_dim(), {1e-4, 1});
    eng.set_state(c.initial_state(0.5));
    const auto t0 = std::chrono::steady_clock::now();
    eng.run(0.5);
    return 2.0 * std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
    std::cout << "T4 - design-space exploration throughput after the one-off DoE\n"
                 "investment (48 CCD simulations), scenario S1.\n\n";

    const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, 150.0);
    DesignFlow::Options o;
    o.runner_threads = 8;
    DesignFlow flow(sc.design_space(), sc.make_simulation(), o);
    const auto t_doe0 = std::chrono::steady_clock::now();
    flow.run_ccd();
    const double t_doe =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t_doe0).count();
    auto& surf = flow.surface(kRespPackets);

    // Time a 10k-point sweep on the RSM.
    const auto t0 = std::chrono::steady_clock::now();
    double acc = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        num::Vector x(6);
        for (int j = 0; j < 6; ++j) x[static_cast<std::size_t>(j)] = std::sin(0.37 * i + j) * 0.95;
        acc += surf.value(x);
    }
    benchmark::DoNotOptimize(acc);
    const double t_rsm =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() / n;

    const double t_node = time_one_node_sim(sc);
    const double t_circuit = time_circuit_sim_per_second() * 150.0;  // 150 s horizon

    core::Table t("T4: per-query cost of one design-space evaluation");
    t.headers({"evaluator", "per query", "queries/s", "speedup vs RSM"});
    t.row().cell("RSM (quadratic, k=6)").cell(core::format_seconds(t_rsm)).cell(1.0 / t_rsm, 0).cell(1.0, 1);
    t.row().cell("node co-simulation (power-flow)").cell(core::format_seconds(t_node)).cell(1.0 / t_node, 0).cell(t_node / t_rsm, 0);
    t.row().cell("circuit-level NR transient (est.)").cell(core::format_seconds(t_circuit)).cell(1.0 / t_circuit, 4).cell(t_circuit / t_rsm, 0);
    t.print(std::cout);

    std::cout << "\nOne-off DoE cost: " << core::format_seconds(t_doe) << " for "
              << flow.results().simulations << " simulations; amortized after "
              << static_cast<long>(t_doe / (t_node > 0 ? t_node : 1.0)) + 1
              << " node-level queries (a single sweep uses thousands).\n\n";

    std::ostringstream json;
    json << "{\"bench\": \"t4_speedup\", \"timestamp\": " << std::time(nullptr)
         << ", \"scenario\": \"S1\", \"rsm_query_seconds\": " << t_rsm
         << ", \"node_sim_seconds\": " << t_node << ", \"circuit_sim_seconds\": " << t_circuit
         << ", \"node_speedup\": " << t_node / t_rsm << ", \"circuit_speedup\": "
         << t_circuit / t_rsm << ", \"doe_wall_seconds\": " << t_doe
         << ", \"doe_simulations\": " << flow.results().simulations << "}";
    core::append_history_or_warn("t4_speedup.jsonl", json.str(), std::cout);
    std::cout << "\n";

    // Optional google-benchmark statistical pass over the RSM evaluation.
    benchmark::Initialize(&argc, argv);
    static const rsm::ResponseSurface* g_surf = &surf;
    benchmark::RegisterBenchmark("rsm_evaluate_k6_quadratic", [](benchmark::State& state) {
        num::Vector x(6);
        double i = 0.0;
        for (auto _ : state) {
            for (int j = 0; j < 6; ++j) x[static_cast<std::size_t>(j)] = std::sin(i + j) * 0.9;
            i += 0.1;
            benchmark::DoNotOptimize(g_surf->value(x));
        }
    });
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
