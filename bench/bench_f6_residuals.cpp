// F6 — residual diagnostics of the fitted RSMs: residual histogram, PRESS vs
// RMSE across model orders (the accuracy-evidence figure).
#include <iostream>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "numerics/stats.hpp"
#include "rsm/diagnostics.hpp"

using namespace ehdoe;
using namespace ehdoe::core;

int main() {
    std::cout << "F6 - model-order study + residual histogram for E_cons on S1.\n"
                 "Design: face-centred CCD (48 runs).\n\n";

    const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, 150.0);
    const auto space = sc.design_space();
    doe::CcdOptions fc;
    fc.variant = doe::CcdVariant::FaceCentred;
    const auto design = doe::central_composite(6, fc);
    doe::RunnerOptions ro;
    ro.threads = 8;
    const auto res = doe::BatchRunner(sc.make_simulation(), ro).run_design(space, design);
    const auto y = res.response(kRespConsumed);

    core::Table t("F6a: model order vs fit quality (E_cons)");
    t.headers({"model", "terms", "R2", "adj R2", "RMSE", "PRESS", "pred R2"});
    rsm::FitResult quad_fit = rsm::fit_ols(rsm::ModelSpec(6, rsm::ModelOrder::Quadratic),
                                           res.design.points, y);
    for (auto order : {rsm::ModelOrder::Linear, rsm::ModelOrder::Interaction,
                       rsm::ModelOrder::Quadratic}) {
        const rsm::ModelSpec model(6, order);
        const rsm::FitResult f = rsm::fit_ols(model, res.design.points, y);
        const auto d = rsm::diagnose(f);
        t.row()
            .cell(order == rsm::ModelOrder::Linear        ? "linear"
                  : order == rsm::ModelOrder::Interaction ? "interaction"
                                                          : "quadratic")
            .cell(model.num_terms())
            .cell(f.r_squared(), 4)
            .cell(f.adjusted_r_squared(), 4)
            .cell(f.rmse(), 5)
            .cell(d.press, 5)
            .cell(d.r_squared_pred, 4);
    }
    t.print(std::cout);

    // Residual histogram of the quadratic fit.
    std::vector<double> resid(quad_fit.residuals.begin(), quad_fit.residuals.end());
    const auto h = num::histogram(resid, 9);
    std::cout << "\nF6b: residual histogram (quadratic model)\n";
    core::Table th;
    th.headers({"bin centre", "count", "bar"});
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
        th.row()
            .cell(h.bin_center(i), 5)
            .cell(h.counts[i])
            .cell(std::string(h.counts[i], '#'));
    }
    th.print(std::cout);
    std::cout << "\nExpected shape: quadratic dominates linear/interaction on both\n"
                 "RMSE and PRESS; residuals are centred with no heavy one-sided tail.\n";
    return 0;
}
