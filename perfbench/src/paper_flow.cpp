// paper_flow: the paper's whole design flow, rotating S1 -> S2 -> S3 at
// their default horizons, in-process with one runner thread. One unit is
// one flow: run_ccd -> fit_all -> validate every response on a seeded LHS
// hold-out set -> constrained optimize with simulation confirmation ->
// sweep every response along every factor.
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "core/scenario.hpp"
#include "core/toolkit.hpp"
#include "doe/composite.hpp"
#include "doe/lhs.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ehdoe;

namespace {

constexpr std::size_t kHoldoutPoints = 30;
constexpr std::size_t kSweepPoints = 41;

const char* const kResponses[] = {core::kRespConsumed, core::kRespHarvested,
                                  core::kRespTuning,   core::kRespVmin,
                                  core::kRespDowntime, core::kRespPackets};

class PaperFlow : public Workload {
public:
    explicit PaperFlow(const Config& config) : config_(config) {}

    void setup() override {
        scenarios_.clear();
        simulations_.clear();
        const double horizon = config_.tiny ? 30.0 : -1.0;
        for (core::ScenarioId id : {core::ScenarioId::OfficeHvac, core::ScenarioId::Industrial,
                                    core::ScenarioId::Transport}) {
            scenarios_.push_back(core::Scenario::make(id, horizon));
            simulations_.push_back(scenarios_.back().make_simulation());
        }
        // First touch: one simulation per scenario at the design centre.
        for (std::size_t s = 0; s < scenarios_.size(); ++s) {
            const doe::DesignSpace space = scenarios_[s].design_space();
            simulations_[s](space.to_natural(num::Vector(space.dimension())));
        }
    }

    UnitResult run_unit(std::uint64_t index, Tracer* tracer) override {
        const std::size_t s = index % scenarios_.size();
        const core::Scenario& scenario = scenarios_[s];
        const doe::DesignSpace space = scenario.design_space();
        doe::Simulation sim = simulations_[s];
        if (tracer) sim = timed_simulation(std::move(sim), *tracer, "node");

        core::DesignFlow::Options options;
        options.runner_threads = 1;
        options.seed = mix_seed(config_.seed, index);

        UnitResult result;
        const auto start = Clock::now();
        std::unique_ptr<core::DesignFlow> flow;
        {
            ScopedLayer scope(tracer, "flow.construct");
            flow = std::make_unique<core::DesignFlow>(space, std::move(sim), options);
        }
        auto evaluate_wall = [&] { return flow->batch_stats().wall_seconds; };

        double ccd_s = 0.0, fit_s = 0.0, validate_s = 0.0, optimize_s = 0.0, explore_s = 0.0;
        {
            ScopedLayer scope(tracer, "flow.ccd");
            flow->run_ccd();
            ccd_s = scope.elapsed();
        }
        const double eval_ccd = evaluate_wall();
        {
            ScopedLayer scope(tracer, "flow.fit");
            flow->fit_all();
            fit_s = scope.elapsed();
        }
        double worst = 0.0;
        {
            ScopedLayer scope(tracer, "flow.validate");
            for (const char* response : kResponses) {
                const double nrmse = flow->validate(response, kHoldoutPoints).nrmse_range;
                if (!std::isfinite(nrmse) && result.failure.empty())
                    result.failure = std::string("non-finite hold-out NRMSE for ") + response;
                double& slot = nrmse_max_[response];
                slot = std::max(slot, nrmse);
                worst = std::max(worst, nrmse);
            }
            validate_s = scope.elapsed();
        }
        const double eval_validate = evaluate_wall() - eval_ccd;
        core::OptimizationOutcome best;
        {
            ScopedLayer scope(tracer, "flow.optimize");
            best = flow->optimize(core::kRespPackets, /*maximize=*/true,
                                  {{core::kRespDowntime, -1e300, 0.0},
                                   {core::kRespVmin, 2.1, 1e300}});
            optimize_s = scope.elapsed();
        }
        const double eval_optimize = evaluate_wall() - eval_ccd - eval_validate;
        std::size_t queries = 0;
        {
            ScopedLayer scope(tracer, "flow.explore");
            const num::Vector centre(space.dimension());
            for (const char* response : kResponses) {
                for (const std::string& factor : space.names()) {
                    queries += flow->sweep(response, factor, centre, kSweepPoints).size();
                }
            }
            explore_s = scope.elapsed();
        }
        result.unit_s = seconds_since(start);
        // The simulation phases against the model phases.
        result.part_a_s = ccd_s + validate_s;
        result.part_b_s = fit_s + optimize_s + explore_s;
        result.work = static_cast<double>(flow->simulator_calls());
        nrmse_worst_ = std::max(nrmse_worst_, worst);

        // Every unique CCD, hold-out and confirmation point costs exactly
        // one simulation; everything else is a memo hit.
        std::set<std::vector<double>> unique;
        const doe::Design ccd = doe::central_composite(space.dimension(), options.ccd);
        const doe::Design holdout =
            doe::latin_hypercube(kHoldoutPoints, space.dimension(), options.seed ^ 0xA5A5u);
        for (const doe::Design* d : {&ccd, &holdout}) {
            for (std::size_t i = 0; i < d->points.rows(); ++i) {
                const num::Vector x = space.to_natural(d->points.row(i));
                unique.emplace(x.begin(), x.end());
            }
        }
        unique.emplace(best.natural.begin(), best.natural.end());
        if (flow->simulator_calls() != unique.size() && result.failure.empty()) {
            result.failure = "simulator calls " + std::to_string(flow->simulator_calls()) +
                             " != unique points " + std::to_string(unique.size());
        }
        if (!best.confirmed && result.failure.empty()) result.failure = "no confirmation";

        if (tracer) {
            const doe::BatchStats& st = flow->batch_stats();
            tracer->add_time("doe.evaluate.ccd", eval_ccd);
            tracer->add_time("doe.evaluate.validate", eval_validate);
            tracer->add_time("doe.evaluate.optimize", eval_optimize);
            tracer->add_count("doe.points", static_cast<double>(st.points));
            tracer->add_count("doe.memo_hits", static_cast<double>(st.cache_hits));
            tracer->add_count("rsm.queries", static_cast<double>(queries));
            tracer->add_count("rsm.fits", static_cast<double>(flow->response_names().size()));
            tracer->add_count("opt.rsm_evaluations", static_cast<double>(best.rsm_evaluations));
        }
        return result;
    }

    void named_results(const UnitSamples& untraced, MetricTable& out) const override {
        out.set("flow_p50_ms", untraced.unit_ms.median(), "ms");
        out.set("flow_p90_ms", untraced.unit_ms.quantile(0.9), "ms");
        out.set("sim_calls_per_flow", untraced.work.sum() / untraced.work.size(), "count");
        out.set("rsm_nrmse_max", nrmse_worst_, "ratio");
    }

    double layer_metrics(const Tracer& t, std::size_t units, MetricTable& out) const override {
        const double n = static_cast<double>(units);
        const double node = t.time("node");
        const Samples node_calls = t.samples("node");
        const double eval_ccd = t.time("doe.evaluate.ccd");
        const double eval_validate = t.time("doe.evaluate.validate");
        const double eval_optimize = t.time("doe.evaluate.optimize");
        // Self times: a phase minus the evaluation inside it; evaluation
        // minus the node simulations inside it.
        const double doe_self = eval_ccd + eval_validate + eval_optimize - node +
                                (t.time("flow.ccd") - eval_ccd);
        const double rsm_self = t.time("flow.fit") + (t.time("flow.validate") - eval_validate) +
                                t.time("flow.explore");
        const double opt_self = t.time("flow.optimize") - eval_optimize;
        const double core_self = t.time("flow.construct");

        out.set("core.flow.ccd_ms", 1e3 * t.time("flow.ccd") / n, "ms");
        out.set("core.flow.fit_ms", 1e3 * t.time("flow.fit") / n, "ms");
        out.set("core.flow.validate_ms", 1e3 * t.time("flow.validate") / n, "ms");
        out.set("core.flow.optimize_ms", 1e3 * t.time("flow.optimize") / n, "ms");
        out.set("core.flow.explore_ms", 1e3 * t.time("flow.explore") / n, "ms");
        out.set("node.sim_us_p50", 1e6 * node_calls.median(), "us");
        out.set("node.sim_us_p90", 1e6 * node_calls.quantile(0.9), "us");
        out.set("node.sims", static_cast<double>(node_calls.size()) / n, "count");
        out.set("node.share", node / t.time("unit"), "ratio");
        const double points = t.count("doe.points");
        const double hits = t.count("doe.memo_hits");
        out.set("doe.points", points / n, "count");
        out.set("doe.memo_hits", hits / n, "count");
        out.set("doe.memo_hit_ratio", points > 0 ? hits / points : 0.0, "ratio");
        out.set("doe.self_us", 1e6 * doe_self / n, "us");
        out.set("rsm.fit_us", 1e6 * t.time("flow.fit") / t.count("rsm.fits"), "us");
        out.set("rsm.queries", t.count("rsm.queries") / n, "count");
        out.set("rsm.query_ns", 1e9 * t.time("flow.explore") / t.count("rsm.queries"), "ns");
        out.set("opt.rsm_evaluations", t.count("opt.rsm_evaluations") / n, "count");
        out.set("opt.self_ms", 1e3 * opt_self / n, "ms");
        for (const char* response : kResponses) {
            const auto it = nrmse_max_.find(response);
            out.set(std::string("rsm.nrmse.") + response,
                    it == nrmse_max_.end() ? 0.0 : it->second, "ratio");
        }
        out.set("rsm.nrmse_max", nrmse_worst_, "ratio");
        return node + doe_self + rsm_self + opt_self + core_self;
    }

private:
    Config config_;
    std::vector<core::Scenario> scenarios_;
    std::vector<doe::Simulation> simulations_;
    std::map<std::string, double> nrmse_max_;
    double nrmse_worst_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_flow(const Config& config) {
    return std::make_unique<PaperFlow>(config);
}

}  // namespace perfbench
