// T5 — optimization comparison: the DoE/RSM flow vs classical direct
// simulation-based heuristics (GA, SA, pattern search), the methods the
// abstract calls "difficult to use, due to long CPU times".
// Task: maximize delivered packets on S2 subject to no downtime and a
// healthy storage margin.
//
// The population heuristics (GA, SA restarts) submit whole generations
// through the batch evaluation engine (opt::BatchObjective over a
// doe::BatchRunner), so the direct-on-simulator baseline is itself
// parallel and memoized — the paper's comparison is against the status quo
// at its best, and the trajectories are identical to serial evaluation.
// Appends the comparison as one JSONL line to the tracked perf-trajectory
// ledger bench/history/t5_optim.jsonl (see bench/history/README.md). The
// DoE + RSM row also records the flow's RSM evaluations, which gates.json
// pins with its simulator calls: both are exact functions of the code.
#include <chrono>
#include <ctime>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/toolkit.hpp"
#include "doe/batch_runner.hpp"
#include "opt/anneal.hpp"
#include "opt/genetic.hpp"
#include "opt/pattern.hpp"

using namespace ehdoe;
using namespace ehdoe::core;

namespace {

/// Penalized objective value from one simulated response set.
double penalized_value(const std::map<std::string, double>& r) {
    double v = -r.at(kRespPackets);
    const double downtime = r.at(kRespDowntime);
    const double vmin = r.at(kRespVmin);
    if (downtime > 0.5) v += 1e3 * downtime;
    if (vmin < 2.0) v += 1e4 * (2.0 - vmin);
    return v;
}

// Penalized objective evaluated directly on the simulator (coded units),
// one point per call — the serial baseline (pattern search is inherently
// sequential).
struct DirectObjective {
    const Scenario* sc;
    const doe::DesignSpace* space;
    doe::Simulation sim;
    mutable std::size_t calls = 0;

    double operator()(const num::Vector& coded) const {
        ++calls;
        return penalized_value(sim(space->to_natural(space->clamp(coded))));
    }
};

// Same objective as a population batch routed through the batch engine.
struct BatchDirectObjective {
    const doe::DesignSpace* space;
    std::shared_ptr<doe::BatchRunner> runner;

    BatchDirectObjective(const Scenario& sc, const doe::DesignSpace& sp, std::size_t threads)
        : space(&sp) {
        doe::RunnerOptions o;
        o.threads = threads;
        runner = std::make_shared<doe::BatchRunner>(sc.make_simulation(), o);
    }

    opt::BatchObjective batch() const {
        const doe::DesignSpace* sp = space;
        auto r = runner;
        return [sp, r](const std::vector<num::Vector>& coded) {
            std::vector<num::Vector> natural;
            natural.reserve(coded.size());
            for (const auto& c : coded) natural.push_back(sp->to_natural(sp->clamp(c)));
            const auto rows = r->evaluate(natural);
            std::vector<double> values;
            values.reserve(rows.size());
            for (const auto& row : rows) values.push_back(penalized_value(row));
            return values;
        };
    }
};

}  // namespace

int main() {
    std::cout << "T5 - optimization: DoE/RSM flow vs direct-on-simulator heuristics.\n"
                 "Scenario S2 (industrial drift, 150 s horizon). Objective: maximize\n"
                 "packets s.t. downtime <= 0.5 s and V_min >= 2.0 V.\n\n";

    const Scenario sc = Scenario::make(ScenarioId::Industrial, 150.0);
    const auto space = sc.design_space();

    core::Table t("T5: optimizer comparison");
    t.headers({"method", "simulator calls", "RSM evaluations", "wall",
               "best packets (sim-confirmed)"});

    struct MethodResult {
        std::string method;
        std::size_t simulator_calls = 0;
        double wall_seconds = 0.0;
        double best_packets = 0.0;
        std::size_t rsm_evaluations = 0;
    };
    std::vector<MethodResult> results;

    // --- DoE/RSM flow -------------------------------------------------------
    {
        DesignFlow::Options o;
        o.runner_threads = 8;
        DesignFlow flow(space, sc.make_simulation(), o);
        const auto t0 = std::chrono::steady_clock::now();
        flow.run_ccd();
        const auto out = flow.optimize(
            kRespPackets, true,
            {{kRespDowntime, -1e300, 0.5}, {kRespVmin, 2.0, 1e300}}, true);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        t.row()
            .cell("DoE + RSM (this paper)")
            .cell(flow.simulator_calls())
            .cell(out.rsm_evaluations)
            .cell(core::format_seconds(wall))
            .cell(out.confirmed.value_or(-1.0), 1);
        results.push_back({"DoE + RSM (this paper)", flow.simulator_calls(), wall,
                           out.confirmed.value_or(-1.0), out.rsm_evaluations});
    }

    // --- direct heuristics --------------------------------------------------
    // GA/SA: populations batched through the evaluation engine. The
    // "simulator calls" column reports actual simulations — memoization
    // makes revisited genomes free, which only flatters the baseline.
    const auto run_batched = [&](const char* name, auto&& optimize) {
        BatchDirectObjective obj(sc, space, 8);
        const auto t0 = std::chrono::steady_clock::now();
        const opt::OptResult r = optimize(obj.batch());
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        // Confirm the winner (an already-visited point is a cache hit).
        const auto conf = obj.runner->evaluate_point(space.to_natural(space.clamp(r.x)));
        t.row()
            .cell(name)
            .cell(obj.runner->stats().simulations)
            .cell(0)
            .cell(core::format_seconds(wall))
            .cell(conf.at(kRespPackets), 1);
        results.push_back({name, obj.runner->stats().simulations, wall, conf.at(kRespPackets)});
    };

    const opt::Bounds cube = opt::Bounds::coded_cube(6);
    run_batched("genetic algorithm (direct, batched)", [&](const opt::BatchObjective& obj) {
        opt::GeneticOptions g;
        g.population = 30;
        g.generations = 40;
        g.seed = 5;
        return opt::genetic_minimize(obj, cube, g);
    });
    run_batched("simulated annealing (direct, batched)", [&](const opt::BatchObjective& obj) {
        opt::AnnealOptions a;
        a.moves_per_epoch = 25;
        a.seed = 5;
        a.restarts = 4;
        return opt::simulated_annealing(obj, cube, num::Vector(6), a);
    });

    // Pattern search stays point-at-a-time: its polling loop is sequential.
    {
        DirectObjective obj{&sc, &space, sc.make_simulation()};
        const auto t0 = std::chrono::steady_clock::now();
        const opt::OptResult r = opt::pattern_search(
            [&obj](const num::Vector& x) { return obj(x); }, cube, num::Vector(6));
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        const auto conf = sc.make_simulation()(space.to_natural(space.clamp(r.x)));
        t.row()
            .cell("pattern search (direct)")
            .cell(obj.calls)
            .cell(0)
            .cell(core::format_seconds(wall))
            .cell(conf.at(kRespPackets), 1);
        results.push_back({"pattern search (direct)", obj.calls, wall, conf.at(kRespPackets)});
    }

    t.print(std::cout);
    // Each direct method's simulator calls as a multiple of the flow's, read
    // off the rows above.
    const MethodResult& doe_row = results.front();
    std::cout << "\nSimulator calls against the DoE + RSM flow's " << doe_row.simulator_calls
              << ":\n";
    for (std::size_t i = 1; i < results.size(); ++i) {
        const double ratio = static_cast<double>(results[i].simulator_calls) /
                             static_cast<double>(doe_row.simulator_calls);
        std::cout << "  " << results[i].method << ": " << results[i].simulator_calls << " ("
                  << core::format_double(ratio, 1) << "x)\n";
    }

    std::ostringstream json;
    json << "{\"bench\": \"t5_optim\", \"timestamp\": " << std::time(nullptr)
         << ", \"scenario\": \"S2\", \"methods\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        json << (i ? ", " : "") << "{\"method\": \"" << r.method
             << "\", \"simulator_calls\": " << r.simulator_calls
             << ", \"rsm_evaluations\": " << r.rsm_evaluations
             << ", \"wall_seconds\": " << r.wall_seconds
             << ", \"best_packets\": " << r.best_packets << "}";
    }
    json << "]}";
    core::append_history_or_warn("t5_optim.jsonl", json.str(), std::cout);
    return 0;
}
