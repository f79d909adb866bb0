#include "core/toolkit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "opt/nelder_mead.hpp"

namespace ehdoe::core {

DesignFlow::DesignFlow(doe::DesignSpace space, doe::Simulation simulation, Options options)
    : space_(std::move(space)),
      options_(std::move(options)),
      model_(space_.dimension(), rsm::ModelOrder::Quadratic) {
    // Remote and exec flows need no local simulation closure — the shards
    // or the recipe's external simulator own the model.
    if (!simulation && options_.endpoints.empty() && options_.recipe_file.empty())
        throw std::invalid_argument("DesignFlow: simulation required");
    doe::RunnerOptions ro;
    ro.recipe_file = options_.recipe_file;
    ro.endpoints = options_.endpoints;
    ro.threads = options_.runner_threads;
    ro.cache_file = options_.cache_file;
    ro.cache_fingerprint = options_.cache_fingerprint;
    ro.store_endpoint = options_.store_endpoint;
    ro.trace_file = options_.trace_file;
    ro.event_log_file = options_.event_log_file;
    runner_ = std::make_unique<doe::BatchRunner>(std::move(simulation), std::move(ro));
}

const doe::RunResults& DesignFlow::run_ccd() {
    return run(doe::central_composite(space_.dimension(), options_.ccd));
}

const doe::RunResults& DesignFlow::run(const doe::Design& design) {
    results_ = runner_->run_design(space_, design);
    surfaces_.clear();  // stale fits die with their data
    return *results_;
}

const doe::RunResults& DesignFlow::results() const {
    if (!results_) throw std::logic_error("DesignFlow: no experiments run yet");
    return *results_;
}

const rsm::ResponseSurface& DesignFlow::surface(const std::string& response) {
    auto it = surfaces_.find(response);
    if (it != surfaces_.end()) return it->second;
    const doe::RunResults& res = results();
    const std::vector<double> y = res.response(response);
    rsm::FitResult fit = rsm::fit_ols(model_, res.design.points, y);
    auto [pos, inserted] =
        surfaces_.emplace(response, rsm::ResponseSurface(std::move(fit), space_, response));
    (void)inserted;
    return pos->second;
}

void DesignFlow::fit_all() {
    for (const std::string& name : results().response_names) surface(name);
}

std::vector<std::string> DesignFlow::response_names() const { return results().response_names; }

rsm::ValidationReport DesignFlow::validate(const std::string& response, std::size_t n_points) {
    const rsm::ResponseSurface& s = surface(response);
    auto it = holdouts_.find(n_points);
    if (it == holdouts_.end()) {
        const doe::Design lhs =
            doe::latin_hypercube(n_points, space_.dimension(), options_.seed ^ 0xA5A5u);
        it = holdouts_.emplace(n_points, lhs.points).first;
    }
    const num::Matrix& probe = it->second;
    const doe::RunResults res = runner_->run_points(space_, probe);
    return rsm::validate_holdout(s.fit(), probe, res.response(response));
}

std::vector<std::pair<double, double>> DesignFlow::sweep(const std::string& response,
                                                         const std::string& factor,
                                                         const num::Vector& fixed_coded,
                                                         std::size_t points) {
    if (points < 2) throw std::invalid_argument("DesignFlow::sweep: points >= 2");
    const rsm::ResponseSurface& s = surface(response);
    const std::size_t fi = space_.index_of(factor);
    if (fixed_coded.size() != space_.dimension())
        throw std::invalid_argument("DesignFlow::sweep: point dimension mismatch");
    num::Matrix line(points, fixed_coded.size());
    for (std::size_t i = 0; i < points; ++i) {
        std::copy(fixed_coded.begin(), fixed_coded.end(), line.row_ptr(i));
        line(i, fi) = -1.0 + 2.0 * static_cast<double>(i) / static_cast<double>(points - 1);
    }
    const std::vector<double> values = s.fit().predict(line);
    std::vector<std::pair<double, double>> out;
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i)
        out.emplace_back(space_.factor(fi).to_natural(line(i, fi)), values[i]);
    return out;
}

const double* DesignFlow::coefficients_of(const rsm::ResponseSurface& s) const {
    if (s.fit().coefficients.size() != model_.num_terms())
        throw std::invalid_argument("DesignFlow: coefficient count mismatch");
    return s.fit().coefficients.data();
}

std::map<std::string, double> DesignFlow::predict_fitted(const num::Vector& coded) const {
    if (coded.size() != model_.dimension())
        throw std::invalid_argument("DesignFlow: point dimension mismatch");
    std::vector<const double*> betas;
    betas.reserve(surfaces_.size());
    for (const auto& entry : surfaces_) betas.push_back(coefficients_of(entry.second));
    std::vector<double> values(betas.size());
    model_.predict_block(coded.data(), 1, coded.size(), betas.data(), betas.size(),
                         values.data());
    std::map<std::string, double> out;
    std::size_t i = 0;
    for (const auto& entry : surfaces_) out.emplace_hint(out.end(), entry.first, values[i++]);
    return out;
}

std::map<std::string, double> DesignFlow::predict_all(const num::Vector& coded) {
    fit_all();
    return predict_fitted(coded);
}

OptimizationOutcome DesignFlow::optimize(const std::string& objective, bool maximize,
                                         const std::vector<ResponseConstraint>& constraints,
                                         bool confirm_with_simulation) {
    const std::size_t k = space_.dimension();
    const rsm::ResponseSurface& obj_surface = surface(objective);
    // The objective's coefficients, then each constraint's: one block call
    // per penalised point predicts them all. Their counts are checked here,
    // once, and every surface shares the flow's term list by construction.
    std::vector<const double*> betas{coefficients_of(obj_surface)};
    for (const auto& c : constraints) betas.push_back(coefficients_of(surface(c.response)));
    std::vector<double> predicted;

    // Penalty scale: the objective's observed spread keeps the penalty
    // meaningfully dominant without destroying conditioning.
    const std::vector<double> yobs = results().response(objective);
    double ymin = yobs[0], ymax = yobs[0];
    for (double v : yobs) {
        ymin = std::min(ymin, v);
        ymax = std::max(ymax, v);
    }
    const double spread = std::max(ymax - ymin, 1e-12);
    const double penalty_w = 1e3 * spread;

    std::size_t rsm_evals = 0;
    const opt::BlockObjective penalized = [&](const double* points, std::size_t count,
                                              double* values) {
        rsm_evals += count;
        const std::size_t m = betas.size();
        if (predicted.size() < count * m) predicted.resize(count * m);
        model_.predict_block(points, count, k, betas.data(), m, predicted.data());
        for (std::size_t p = 0; p < count; ++p) {
            const double* r = predicted.data() + p * m;
            double v = maximize ? -r[0] : r[0];
            for (std::size_t i = 0; i < constraints.size(); ++i) {
                const ResponseConstraint& c = constraints[i];
                if (r[i + 1] < c.min) {
                    const double d = (c.min - r[i + 1]) / spread;
                    v += penalty_w * d * d;
                }
                if (r[i + 1] > c.max) {
                    const double d = (r[i + 1] - c.max) / spread;
                    v += penalty_w * d * d;
                }
            }
            values[p] = v;
        }
    };

    // Multi-start: grid scan winner + centre + 2^min(k,4) alternating corners,
    // run together as lanes of one driver; the first start with the lowest
    // value wins.
    const auto grid = obj_surface.grid_best(k <= 4 ? 7 : 5, maximize);
    std::vector<num::Vector> starts{grid.coded, num::Vector(k)};
    const std::size_t corner_count = std::size_t{1} << std::min<std::size_t>(k, 4);
    for (std::size_t c = 0; c < corner_count; ++c) {
        num::Vector corner(k);
        for (std::size_t f = 0; f < k; ++f) corner[f] = ((c >> (f % 4)) & 1u) ? 0.9 : -0.9;
        starts.push_back(std::move(corner));
    }

    opt::OptResult best;
    best.value = 1e300;
    for (opt::OptResult& r :
         opt::nelder_mead_starts(penalized, opt::Bounds::coded_cube(k), starts)) {
        if (r.value < best.value) best = std::move(r);
    }

    OptimizationOutcome out;
    out.coded = best.x;
    out.natural = space_.to_natural(best.x);
    out.predicted_responses = predict_fitted(best.x);
    out.predicted = out.predicted_responses.at(objective);
    out.rsm_evaluations = rsm_evals;

    if (confirm_with_simulation) {
        // Route the confirmation through the batch engine: a winner on an
        // already-simulated point (e.g. a design vertex) is a cache hit.
        const auto sim = runner_->evaluate_point(out.natural);
        const auto it = sim.find(objective);
        if (it != sim.end()) out.confirmed = it->second;
    }
    return out;
}

}  // namespace ehdoe::core
