// Stepwise model-reduction tests.
#include <gtest/gtest.h>

#include "doe/lhs.hpp"
#include "numerics/stats.hpp"
#include "rsm/stepwise.hpp"

using namespace ehdoe::rsm;
using ehdoe::num::Monomial;
using ehdoe::num::Vector;

namespace {

// y = 2 + 3 x0 + 1.5 x0 x1 + noise. x2 is inert.
std::pair<ehdoe::num::Matrix, std::vector<double>> make_data(double noise,
                                                             std::uint64_t seed = 11) {
    ehdoe::num::Rng rng = ehdoe::num::make_rng(seed);
    const auto d = ehdoe::doe::latin_hypercube(90, 3, 47);
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) {
        const Vector x = d.points.row(i);
        y[i] = 2.0 + 3.0 * x[0] + 1.5 * x[0] * x[1] + ehdoe::num::normal(rng, 0.0, noise);
    }
    return {d.points, y};
}

bool has_term(const ModelSpec& m, const std::vector<unsigned>& exps) {
    for (const auto& t : m.terms()) {
        if (t.exponents == exps) return true;
    }
    return false;
}

}  // namespace

TEST(Backward, RemovesInertTermsKeepsReal) {
    const auto [pts, y] = make_data(0.1);
    const StepwiseResult r =
        backward_eliminate(ModelSpec(3, ModelOrder::Quadratic), pts, y);
    EXPECT_GT(r.terms_removed, 0u);
    EXPECT_TRUE(has_term(r.fit.model, {1, 0, 0}));  // x0 stays
    EXPECT_TRUE(has_term(r.fit.model, {1, 1, 0}));  // x0 x1 stays
    EXPECT_FALSE(has_term(r.fit.model, {0, 0, 2})); // x2^2 goes
    EXPECT_GT(r.fit.r_squared(), 0.98);
    EXPECT_EQ(r.removed_terms.size(), r.terms_removed);
}

TEST(Backward, HeredityKeepsParentsOfInteractions) {
    const auto [pts, y] = make_data(0.1);
    StepwiseOptions o;
    o.enforce_heredity = true;
    const StepwiseResult r =
        backward_eliminate(ModelSpec(3, ModelOrder::Quadratic), pts, y, o);
    // x1 main effect is inert but its interaction x0x1 is real: heredity
    // keeps x1 in the model.
    if (has_term(r.fit.model, {1, 1, 0})) {
        EXPECT_TRUE(has_term(r.fit.model, {0, 1, 0}));
    }
}

TEST(Backward, WithoutHeredityPrunesHarder) {
    const auto [pts, y] = make_data(0.1);
    StepwiseOptions strict;
    strict.enforce_heredity = false;
    StepwiseOptions lax;
    lax.enforce_heredity = true;
    const auto r_strict = backward_eliminate(ModelSpec(3, ModelOrder::Quadratic), pts, y, strict);
    const auto r_lax = backward_eliminate(ModelSpec(3, ModelOrder::Quadratic), pts, y, lax);
    EXPECT_GE(r_strict.terms_removed, r_lax.terms_removed);
}

TEST(Backward, KeepsInterceptByDefault) {
    const auto [pts, y] = make_data(0.5);
    const StepwiseResult r =
        backward_eliminate(ModelSpec(3, ModelOrder::Quadratic), pts, y);
    EXPECT_TRUE(has_term(r.fit.model, {0, 0, 0}));
}
