// Latin hypercube tests.
#include <gtest/gtest.h>

#include "doe/lhs.hpp"

using namespace ehdoe::doe;

TEST(Lhs, SatisfiesLatinProperty) {
    const Design d = latin_hypercube(20, 4, 123);
    EXPECT_TRUE(is_latin(d));
    EXPECT_EQ(d.runs(), 20u);
    EXPECT_EQ(d.dimension(), 4u);
}

TEST(Lhs, PointsInsideCube) {
    const Design d = latin_hypercube(50, 3, 7);
    for (std::size_t i = 0; i < d.runs(); ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_GE(d.points(i, j), -1.0);
            EXPECT_LE(d.points(i, j), 1.0);
        }
    }
}

TEST(Lhs, DeterministicFromSeed) {
    const Design a = latin_hypercube(15, 3, 99);
    const Design b = latin_hypercube(15, 3, 99);
    EXPECT_TRUE(ehdoe::num::approx_equal(a.points, b.points, 0.0));
    const Design c = latin_hypercube(15, 3, 100);
    EXPECT_FALSE(ehdoe::num::approx_equal(a.points, c.points, 1e-12));
}

TEST(Lhs, MaximinImprovesSpacing) {
    LhsOptions plain;
    plain.maximin_iterations = 0;
    LhsOptions opt;
    opt.maximin_iterations = 500;
    double d_plain = 0.0, d_opt = 0.0;
    // Average over seeds: the hill climb never hurts, usually helps.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        d_plain += min_pairwise_distance(latin_hypercube(30, 3, seed, plain).points);
        d_opt += min_pairwise_distance(latin_hypercube(30, 3, seed, opt).points);
    }
    EXPECT_GE(d_opt, d_plain);
}

TEST(Lhs, CenteredVariantWhenNoJitter) {
    LhsOptions o;
    o.jitter = false;
    o.maximin_iterations = 0;
    const Design d = latin_hypercube(4, 1, 5, o);
    // Strata centres at -0.75, -0.25, 0.25, 0.75 in some order.
    std::vector<double> vals;
    for (std::size_t i = 0; i < 4; ++i) vals.push_back(d.points(i, 0));
    std::sort(vals.begin(), vals.end());
    EXPECT_NEAR(vals[0], -0.75, 1e-12);
    EXPECT_NEAR(vals[3], 0.75, 1e-12);
}

TEST(Lhs, Validation) {
    ehdoe::num::Rng rng = ehdoe::num::make_rng(1);
    EXPECT_THROW(latin_hypercube(1, 3, rng), std::invalid_argument);
    EXPECT_THROW(latin_hypercube(10, 0, rng), std::invalid_argument);
}

class LhsSizeP : public ::testing::TestWithParam<int> {};

TEST_P(LhsSizeP, LatinAcrossSizes) {
    const auto n = static_cast<std::size_t>(GetParam());
    EXPECT_TRUE(is_latin(latin_hypercube(n, 5, 1000 + n)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LhsSizeP, ::testing::Values(2, 5, 10, 25, 60, 120));
