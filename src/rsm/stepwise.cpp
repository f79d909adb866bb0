#include "rsm/stepwise.hpp"

namespace ehdoe::rsm {

namespace {

/// Terms whose p-value exceeds this are dropped, weakest first.
constexpr double kPToRemove = 0.10;
constexpr std::size_t kMaxSteps = 100;

/// Does removing term `idx` violate heredity? A main effect x_i must stay
/// while any higher-order term containing x_i remains.
bool heredity_blocks(const ModelSpec& model, std::size_t idx) {
    const num::Monomial& cand = model.terms()[idx];
    if (cand.degree() != 1) return false;  // only main effects are protected
    std::size_t var = 0;
    for (std::size_t v = 0; v < cand.variables(); ++v) {
        if (cand.exponents[v] == 1) { var = v; break; }
    }
    for (std::size_t t = 0; t < model.num_terms(); ++t) {
        if (t == idx) continue;
        const num::Monomial& m = model.terms()[t];
        if (m.degree() >= 2 && m.exponents[var] > 0) return true;
    }
    return false;
}

}  // namespace

StepwiseResult backward_eliminate(const ModelSpec& initial, const Matrix& coded_points,
                                  const std::vector<double>& y) {
    StepwiseResult out{fit_ols(initial, coded_points, y), 0, {}};

    for (std::size_t step = 0; step < kMaxSteps; ++step) {
        if (out.fit.model.num_terms() <= 1) break;
        if (out.fit.n <= out.fit.p) break;  // no residual dof: cannot test

        const Diagnostics diag = diagnose(out.fit);
        // Find the weakest eligible term.
        double worst_p = kPToRemove;
        std::size_t worst = out.fit.model.num_terms();
        for (std::size_t t = 0; t < out.fit.model.num_terms(); ++t) {
            const num::Monomial& m = out.fit.model.terms()[t];
            if (m.is_constant() || heredity_blocks(out.fit.model, t)) continue;
            if (diag.coefficients[t].p_value > worst_p) {
                worst_p = diag.coefficients[t].p_value;
                worst = t;
            }
        }
        if (worst == out.fit.model.num_terms()) break;  // everything significant

        out.removed_terms.push_back(out.fit.model.terms()[worst].to_string());
        const ModelSpec reduced = out.fit.model.without_term(worst);
        out.fit = fit_ols(reduced, coded_points, y);
        ++out.terms_removed;
    }
    return out;
}

}  // namespace ehdoe::rsm
