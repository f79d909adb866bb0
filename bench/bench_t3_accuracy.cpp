// T3 — RSM prediction accuracy per performance indicator, per scenario
// ("evaluate the effect almost instantly but still with high accuracy").
//
// Appends the accuracy table as one JSONL line to the tracked
// perf-trajectory ledger bench/history/t3_accuracy.jsonl (see
// bench/history/README.md).
#include <ctime>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/toolkit.hpp"

using namespace ehdoe;
using namespace ehdoe::core;

int main() {
    std::cout << "T3 - quadratic-RSM validated accuracy for every performance\n"
                 "indicator, per scenario. CCD(face-centred) + 60 fresh validation\n"
                 "simulations per scenario.\n\n";

    core::Table t("T3: hold-out accuracy per indicator");
    t.headers({"scenario", "response", "val RMSE", "NRMSE/mean", "NRMSE/range", "val R2"});

    // Per response, the worst row over the scenarios.
    struct Worst {
        double nrmse_range = -1.0;
        std::string nrmse_at;
        double r2 = 2.0;
        std::string r2_at;
    };
    std::map<std::string, Worst> worst;

    std::ostringstream json_rows;
    bool first_row = true;
    for (auto id : {ScenarioId::OfficeHvac, ScenarioId::Industrial, ScenarioId::Transport}) {
        const Scenario sc = Scenario::make(id, 150.0);
        DesignFlow::Options o;
        o.runner_threads = 8;
        DesignFlow flow(sc.design_space(), sc.make_simulation(), o);
        flow.run_ccd();
        for (const std::string& resp : flow.response_names()) {
            const auto v = flow.validate(resp, 60);
            t.row()
                .cell(sc.name())
                .cell(resp)
                .cell(v.rmse, 5)
                .cell(v.nrmse_mean, 3)
                .cell(v.nrmse_range, 3)
                .cell(v.r_squared, 3);
            json_rows << (first_row ? "" : ", ") << "{\"scenario\": \"" << sc.name()
                      << "\", \"response\": \"" << resp << "\", \"val_rmse\": " << v.rmse
                      << ", \"nrmse_mean\": " << v.nrmse_mean
                      << ", \"nrmse_range\": " << v.nrmse_range
                      << ", \"val_r2\": " << v.r_squared << "}";
            first_row = false;
            Worst& w = worst[resp];
            if (v.nrmse_range > w.nrmse_range) {
                w.nrmse_range = v.nrmse_range;
                w.nrmse_at = sc.name();
            }
            if (v.r_squared < w.r2) {
                w.r2 = v.r_squared;
                w.r2_at = sc.name();
            }
        }
    }
    t.print(std::cout);

    std::cout << "\n";
    core::Table summary("Worst case per response over the three scenarios");
    summary.headers({"response", "max NRMSE/range", "in", "min val R2", "in"});
    for (const auto& [resp, w] : worst) {
        summary.row()
            .cell(resp)
            .cell(w.nrmse_range, 3)
            .cell(w.nrmse_at)
            .cell(w.r2, 3)
            .cell(w.r2_at);
    }
    summary.print(std::cout);

    std::ostringstream json;
    json << "{\"bench\": \"t3_accuracy\", \"timestamp\": " << std::time(nullptr)
         << ", \"rows\": [" << json_rows.str() << "]}";
    core::append_history_or_warn("t3_accuracy.jsonl", json.str(), std::cout);
    return 0;
}
