// Stepwise model-reduction tests.
#include <gtest/gtest.h>

#include "doe/composite.hpp"
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
    const StepwiseResult r = backward_eliminate(ModelSpec(3, ModelOrder::Quadratic), pts, y);
    // x1 main effect is inert but its interaction x0x1 is real: heredity
    // keeps x1 in the model.
    if (has_term(r.fit.model, {1, 1, 0})) {
        EXPECT_TRUE(has_term(r.fit.model, {0, 1, 0}));
    }
}

TEST(Backward, KeepsIntercept) {
    const auto [pts, y] = make_data(0.5);
    const StepwiseResult r =
        backward_eliminate(ModelSpec(3, ModelOrder::Quadratic), pts, y);
    EXPECT_TRUE(has_term(r.fit.model, {0, 0, 0}));
}

TEST(Backward, PlaygroundGoldenIsBitwiseStable) {
    // doe_playground's data: y = 5 + 2 x0 - x1 + 1.5 x0 x1 - 2 x0^2 on the
    // default k = 4 CCD, with x2 and x3 inert. The removal order follows
    // the rounding noise of an exact fit, so any change to the elimination
    // rule or to the fits moves it or the surviving coefficients' bits.
    const ehdoe::doe::Design d = ehdoe::doe::central_composite(4, {});
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) {
        const Vector x = d.points.row(i);
        y[i] = 5.0 + 2.0 * x[0] - x[1] + 1.5 * x[0] * x[1] - 2.0 * x[0] * x[0];
    }
    const StepwiseResult r = backward_eliminate(ModelSpec(4, ModelOrder::Quadratic), d.points, y);
    EXPECT_EQ(r.removed_terms,
              (std::vector<std::string>{"x1^2", "x3^2", "x2^2", "x1*x3", "x1*x2", "x2*x3",
                                        "x0*x2", "x2", "x0*x3", "x3"}));
    EXPECT_EQ(r.terms_removed, 10u);
    std::vector<std::string> kept;
    for (const Monomial& m : r.fit.model.terms()) kept.push_back(m.to_string());
    EXPECT_EQ(kept, (std::vector<std::string>{"1", "x0", "x1", "x0*x1", "x0^2"}));
    const double want[] = {0x1.3fffffffffffep+2, 0x1.ffffffffffff3p+0, -0x1.ffffffffffffbp-1,
                           0x1.8000000000005p+0, -0x1.ffffffffffffap+0};
    ASSERT_EQ(r.fit.coefficients.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(r.fit.coefficients[i], want[i]) << i;
}
