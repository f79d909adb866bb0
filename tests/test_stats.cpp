// Statistics helpers and deterministic RNG utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "numerics/stats.hpp"

using namespace ehdoe::num;

TEST(Stats, MeanMinAndMax) {
    const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_DOUBLE_EQ(min_of(xs), 2.0);
    EXPECT_DOUBLE_EQ(max_of(xs), 9.0);
}

TEST(Stats, DegenerateInputs) {
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(rms({}), 0.0);
    EXPECT_THROW(min_of({}), std::invalid_argument);
    EXPECT_THROW(max_of({}), std::invalid_argument);
}

TEST(Stats, Rms) { EXPECT_NEAR(rms({3.0, 4.0}), std::sqrt(12.5), 1e-12); }

TEST(Rng, DeterministicFromSeed) {
    Rng a = make_rng(42), b = make_rng(42);
    for (int i = 0; i < 10; ++i) {
        EXPECT_DOUBLE_EQ(uniform(a, 0.0, 1.0), uniform(b, 0.0, 1.0));
    }
    Rng c = make_rng(43);
    EXPECT_NE(uniform(a, 0.0, 1.0), uniform(c, 0.0, 1.0));
}

TEST(Rng, UniformRespectsBounds) {
    Rng rng = make_rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double u = uniform(rng, 2.0, 3.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 3.0);
        const int n = uniform_int(rng, -2, 2);
        EXPECT_GE(n, -2);
        EXPECT_LE(n, 2);
    }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
    Rng rng = make_rng(5);
    std::vector<double> xs(20000);
    for (auto& x : xs) x = normal(rng, 1.0, 2.0);
    const double m = mean(xs);
    EXPECT_NEAR(m, 1.0, 0.05);
    for (auto& x : xs) x -= m;
    EXPECT_NEAR(rms(xs), 2.0, 0.05);
}

TEST(Rng, PermutationIsPermutation) {
    Rng rng = make_rng(9);
    const auto p = permutation(rng, 50);
    std::vector<bool> seen(50, false);
    for (std::size_t v : p) {
        ASSERT_LT(v, 50u);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Histogram, CountsAndClamping) {
    const Histogram h = histogram({0.1, 0.2, 0.9, -5.0, 5.0}, 2, 0.0, 1.0);
    EXPECT_EQ(h.counts.size(), 2u);
    EXPECT_EQ(h.counts[0], 3u);  // 0.1, 0.2 and clamped -5
    EXPECT_EQ(h.counts[1], 2u);  // 0.9 and clamped 5
    EXPECT_DOUBLE_EQ(h.bin_width(), 0.5);
    EXPECT_DOUBLE_EQ(h.bin_center(0), 0.25);
}

TEST(Histogram, AutoRange) {
    const Histogram h = histogram({1.0, 2.0, 3.0}, 2);
    EXPECT_DOUBLE_EQ(h.lo, 1.0);
    EXPECT_DOUBLE_EQ(h.hi, 3.0);
    std::size_t total = 0;
    for (auto c : h.counts) total += c;
    EXPECT_EQ(total, 3u);
    EXPECT_THROW(histogram({}, 4), std::invalid_argument);
    EXPECT_THROW(histogram({1.0}, 0, 0.0, 1.0), std::invalid_argument);
}

TEST(Histogram, FarAndInfiniteValuesGoToTheEndBins) {
    // An integer cast of these positions is undefined (on x86 it put all
    // four in bin 0), so the position is clamped first.
    const double inf = std::numeric_limits<double>::infinity();
    const Histogram h = histogram({inf, 1e300, -inf, -1e300, 0.6}, 4, 0.0, 1.0);
    EXPECT_EQ(h.counts, (std::vector<std::size_t>{2, 0, 1, 2}));
}

TEST(Histogram, RejectsNaNAndNonFiniteRanges) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(histogram({0.5, nan}, 4, 0.0, 1.0), std::invalid_argument);
    // Auto-ranged over infinite data, every position would be NaN.
    EXPECT_THROW(histogram({0.5, inf}, 4), std::invalid_argument);
    EXPECT_THROW(histogram({-inf, 0.5}, 4), std::invalid_argument);
    EXPECT_THROW(histogram({0.5, nan}, 4), std::invalid_argument);
    EXPECT_THROW(histogram({0.5}, 4, -inf, 1.0), std::invalid_argument);
    EXPECT_THROW(histogram({0.5}, 4, 0.0, inf), std::invalid_argument);
    EXPECT_THROW(histogram({0.5}, 4, -1e308, 1e308), std::invalid_argument);  // width overflows
}
