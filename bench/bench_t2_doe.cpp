// T2 — DoE design comparison: run count vs RSM predictive accuracy
// ("a moderate number of simulations is required to build the RSM").
// Designs: 3^6 full factorial (reference, large), face-centred CCD,
// Box-Behnken, LHS at two sizes, Plackett-Burman (screening, linear model).
//
// Appends the comparison as one JSONL line to the tracked perf-trajectory
// ledger bench/history/t2_doe.jsonl (see bench/history/README.md).
#include <ctime>
#include <iostream>
#include <sstream>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/toolkit.hpp"
#include "doe/composite.hpp"
#include "doe/factorial.hpp"
#include "doe/lhs.hpp"
#include "rsm/validate.hpp"

using namespace ehdoe;
using namespace ehdoe::core;

int main() {
    std::cout << "T2 - design-of-experiment comparison on scenario S1 (office/HVAC),\n"
                 "response: E_cons (J). Quadratic RSM; validation on 150 fresh LHS\n"
                 "simulations (identical across rows).\n\n";

    const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, 120.0);
    const auto space = sc.design_space();
    const auto sim = sc.make_simulation();
    doe::RunnerOptions ro;
    ro.threads = 8;

    // Shared validation set.
    const doe::Design probe = doe::latin_hypercube(150, 6, 424242);
    const doe::RunResults probe_res = doe::BatchRunner(sim, ro).run_points(space, probe.points);
    const auto y_probe = probe_res.response(kRespConsumed);

    struct Row {
        std::string name;
        doe::Design design;
        rsm::ModelOrder order;
    };
    doe::CcdOptions fc;
    fc.variant = doe::CcdVariant::FaceCentred;
    std::vector<Row> rows;
    rows.push_back({"full-factorial 3^6", doe::full_factorial(6, 3), rsm::ModelOrder::Quadratic});
    rows.push_back({"CCD (face-centred)", doe::central_composite(6, fc), rsm::ModelOrder::Quadratic});
    rows.push_back({"Box-Behnken", doe::box_behnken(6, 4), rsm::ModelOrder::Quadratic});
    rows.push_back({"LHS n=60", doe::latin_hypercube(60, 6, 7), rsm::ModelOrder::Quadratic});
    rows.push_back({"LHS n=35", doe::latin_hypercube(35, 6, 8), rsm::ModelOrder::Quadratic});
    rows.push_back({"Plackett-Burman (linear)", doe::plackett_burman(6), rsm::ModelOrder::Linear});
    rows.push_back({"CCD + linear model", doe::central_composite(6, fc), rsm::ModelOrder::Linear});

    core::Table t("T2: runs vs validated accuracy (response E_cons)");
    t.headers({"design", "runs", "fit R2", "val RMSE (J)", "val NRMSE/mean", "val R2"});
    std::ostringstream json_rows;
    bool first_row = true;
    for (const Row& r : rows) {
        const doe::RunResults res = doe::BatchRunner(sim, ro).run_design(space, r.design);
        const rsm::ModelSpec model(6, r.order);
        const rsm::FitResult fit = rsm::fit_ols(model, res.design.points, res.response(kRespConsumed));
        const rsm::ValidationReport v = rsm::validate_holdout(fit, probe.points, y_probe);
        t.row()
            .cell(r.name)
            // Classical run count (design size), not deduplicated simulator
            // invocations — replicated centre points are cache hits now.
            .cell(res.design.runs())
            .cell(fit.r_squared(), 3)
            .cell(v.rmse, 5)
            .cell(v.nrmse_mean, 3)
            .cell(v.r_squared, 3);
        json_rows << (first_row ? "" : ", ") << "{\"design\": \"" << r.name
                  << "\", \"runs\": " << res.design.runs() << ", \"fit_r2\": " << fit.r_squared()
                  << ", \"val_rmse\": " << v.rmse << ", \"val_nrmse_mean\": " << v.nrmse_mean
                  << ", \"val_r2\": " << v.r_squared << "}";
        first_row = false;
    }
    t.print(std::cout);
    std::cout << "\nExpected shape: the 48-run CCD approaches the 729-run full factorial;\n"
                 "LHS is competitive at similar size; linear models are visibly worse.\n";

    std::ostringstream json;
    json << "{\"bench\": \"t2_doe\", \"timestamp\": " << std::time(nullptr)
         << ", \"scenario\": \"S1\", \"response\": \"E_cons\", \"designs\": [" << json_rows.str()
         << "]}";
    core::append_history_or_warn("t2_doe.jsonl", json.str(), std::cout);
    return 0;
}
