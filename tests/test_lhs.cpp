// Latin hypercube tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "doe/lhs.hpp"

using namespace ehdoe::doe;

namespace {

/// FNV-1a over the bit patterns of `m`, row-major.
std::uint64_t bits_digest(const ehdoe::num::Matrix& m) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < m.rows() * m.cols(); ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, m.data() + i, sizeof bits);
        for (int k = 0; k < 8; ++k) {
            h ^= (bits >> (8 * k)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

}  // namespace

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

TEST(Lhs, ProgramDesignsGoldenIsBitwiseStable) {
    // bench_t2_doe's hold-out probe and doe_playground's LHS, at the
    // default jitter and maximin passes.
    EXPECT_EQ(bits_digest(latin_hypercube(150, 6, 424242).points), 0x76fbe50f46dc0899ull);
    EXPECT_EQ(bits_digest(latin_hypercube(27, 4, 42).points), 0x8b0c6741b70720a2ull);
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
