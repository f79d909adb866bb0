// A1 — ablations of the design choices DESIGN.md calls out:
//  (a) PWL engine segment-change retry: accuracy vs cost;
//  (b) Newton-Raphson Jacobian reuse: the cheap trick that narrows (but
//      does not close) the gap to the state-space engine;
//  (c) CCD centre-point count: effect on RSM validation error.
#include <chrono>
#include <cmath>
#include <iostream>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "doe/lhs.hpp"
#include "harvester/harvester_system.hpp"
#include "rsm/validate.hpp"
#include "sim/state_space.hpp"
#include "sim/transient.hpp"

using namespace ehdoe;
using namespace ehdoe::core;

namespace {

std::vector<double> run_pwl(const harvester::HarvesterCircuit& c, bool retry, double h,
                            double* wall, sim::EngineStats* stats) {
    auto accel = [](double t) { return 0.6 * std::sin(2.0 * M_PI * 65.0 * t); };
    sim::PwlEngineOptions o;
    o.step = h;
    o.retry_on_segment_change = retry;
    sim::PwlStateSpaceEngine eng(c.make_pwl_system(), o);
    eng.set_state(c.initial_state(0.5));
    std::vector<double> v;
    const auto t0 = std::chrono::steady_clock::now();
    eng.run(1.0, c.make_input(accel),
            [&](double, const num::Vector& x) { v.push_back(c.output_voltage(x)); });
    *wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    *stats = eng.stats();
    return v;
}

double rel_rms(const std::vector<double>& a, const std::vector<double>& b) {
    const std::size_t n = std::min(a.size(), b.size());
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        num += (a[i] - b[i]) * (a[i] - b[i]);
        den += b[i] * b[i];
    }
    return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

}  // namespace

int main() {
    std::cout << "A1 - ablations of design choices (see DESIGN.md)\n\n";

    harvester::HarvesterCircuitParams p;
    p.storage_capacitance = 50e-6;
    harvester::HarvesterCircuit c(p);

    // (a) segment-change retry. Reference: retry on, fine step.
    {
        double wall_ref;
        sim::EngineStats st_ref;
        const auto ref = run_pwl(c, true, 2.5e-5, &wall_ref, &st_ref);
        core::Table t("A1a: PWL engine segment-retry (h = 1e-4, vs retry-on @ 2.5e-5 ref)");
        t.headers({"retry", "wall", "retried steps", "waveform dRMS vs ref"});
        for (bool retry : {true, false}) {
            double wall;
            sim::EngineStats st;
            // Compare on matching 2.5e-5 sample grid: rerun at coarse step and
            // compare the decimated reference.
            const auto v = run_pwl(c, retry, 1e-4, &wall, &st);
            std::vector<double> ref_dec;
            for (std::size_t i = 3; i < ref.size(); i += 4) ref_dec.push_back(ref[i]);
            t.row()
                .cell(retry ? "on" : "off")
                .cell(core::format_seconds(wall))
                .cell(st.retried_steps)
                .cell(rel_rms(v, ref_dec), 4);
        }
        t.print(std::cout);
        std::cout << '\n';
    }

    // (b) Jacobian reuse in the NR baseline.
    {
        auto accel = [](double t) { return 0.6 * std::sin(2.0 * M_PI * 65.0 * t); };
        core::Table t("A1b: NR baseline Jacobian reuse (h = 1e-4, 1 s transient)");
        t.headers({"reuse", "wall", "jacobian builds", "rhs evals"});
        for (int reuse : {1, 3, 10}) {
            sim::TransientOptions o;
            o.step = 1e-4;
            o.jacobian_reuse = reuse;
            sim::TransientEngine eng(c.make_nonlinear_rhs(accel), c.state_dim(), o);
            eng.set_state(c.initial_state(0.5));
            const auto t0 = std::chrono::steady_clock::now();
            eng.run(1.0);
            const double wall =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
            t.row()
                .cell(reuse)
                .cell(core::format_seconds(wall))
                .cell(eng.stats().jacobian_builds)
                .cell(eng.stats().rhs_evaluations);
        }
        t.print(std::cout);
        std::cout << '\n';
    }

    // (c) CCD centre points vs validated accuracy on S1.
    {
        const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, 120.0);
        const auto space = sc.design_space();
        const auto sim = sc.make_simulation();
        doe::RunnerOptions ro;
        ro.threads = 8;
        const doe::Design probe = doe::latin_hypercube(100, 6, 31337);
        const auto probe_res = doe::BatchRunner(sim, ro).run_points(space, probe.points);
        const auto y_probe = probe_res.response(kRespConsumed);

        core::Table t("A1c: CCD centre-point count vs validation error (E_cons)");
        t.headers({"centre points", "runs", "val RMSE", "val R2"});
        for (std::size_t nc : {0u, 2u, 4u, 8u}) {
            doe::CcdOptions o;
            o.variant = doe::CcdVariant::FaceCentred;
            o.center_points = nc;
            const auto res =
                doe::BatchRunner(sim, ro).run_design(space, doe::central_composite(6, o));
            const auto fit = rsm::fit_ols(rsm::ModelSpec(6, rsm::ModelOrder::Quadratic),
                                          res.design.points, res.response(kRespConsumed));
            const auto v = rsm::validate_holdout(fit, probe.points, y_probe);
            // Classical run count (the design-size axis), not deduplicated
            // simulator invocations — centre replicates are cache hits now.
            t.row().cell(nc).cell(res.design.runs()).cell(v.rmse, 5).cell(v.r_squared, 3);
        }
        t.print(std::cout);
    }
    std::cout << "\nExpected shape: (a) retry costs a handful of extra steps and buys\n"
                 "switching-edge accuracy; (b) Jacobian reuse narrows but cannot close\n"
                 "the engine gap; (c) centre points past ~4 buy little for face-centred\n"
                 "CCDs (pure-error dof only).\n";
    return 0;
}
