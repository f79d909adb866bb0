// Factor coding / design-space tests.
#include <gtest/gtest.h>

#include <cmath>

#include "doe/design.hpp"

using namespace ehdoe::doe;
using ehdoe::num::Vector;

TEST(Factor, LinearCodingRoundTrip) {
    Factor f{"duty", 0.001, 0.02, false};
    EXPECT_DOUBLE_EQ(f.to_natural(-1.0), 0.001);
    EXPECT_DOUBLE_EQ(f.to_natural(1.0), 0.02);
    EXPECT_NEAR(f.to_natural(0.0), 0.0105, 1e-12);
    for (double c : {-1.0, -0.3, 0.0, 0.7, 1.0}) {
        EXPECT_NEAR(f.to_coded(f.to_natural(c)), c, 1e-12);
    }
}

TEST(Factor, LogCodingIsGeometric) {
    Factor f{"C", 0.05, 0.5, true};
    EXPECT_NEAR(f.to_natural(0.0), std::sqrt(0.05 * 0.5), 1e-12);
    EXPECT_NEAR(f.to_coded(f.to_natural(0.42)), 0.42, 1e-12);
    EXPECT_THROW(f.to_coded(-1.0), std::invalid_argument);
}

TEST(Factor, Validation) {
    EXPECT_THROW((Factor{"", 0.0, 1.0, false}.validate()), std::invalid_argument);
    EXPECT_THROW((Factor{"x", 1.0, 1.0, false}.validate()), std::invalid_argument);
    EXPECT_THROW((Factor{"x", -1.0, 1.0, true}.validate()), std::invalid_argument);
}

TEST(DesignSpace, MapsVectors) {
    DesignSpace s({{"a", 0.0, 10.0, false}, {"b", 1.0, 100.0, true}});
    EXPECT_EQ(s.dimension(), 2u);
    const Vector nat = s.to_natural(Vector{0.0, 0.0});
    EXPECT_DOUBLE_EQ(nat[0], 5.0);
    EXPECT_NEAR(nat[1], 10.0, 1e-12);
    for (std::size_t i = 0; i < s.dimension(); ++i)
        EXPECT_NEAR(s.factor(i).to_coded(nat[i]), 0.0, 1e-12);
}

TEST(DesignSpace, IndexAndNames) {
    DesignSpace s({{"a", 0.0, 1.0, false}, {"b", 0.0, 1.0, false}});
    EXPECT_EQ(s.index_of("b"), 1u);
    EXPECT_THROW(s.index_of("zz"), std::invalid_argument);
    EXPECT_EQ(s.names()[0], "a");
    EXPECT_THROW(DesignSpace({{"a", 0.0, 1.0, false}, {"a", 0.0, 1.0, false}}),
                 std::invalid_argument);
    EXPECT_THROW(DesignSpace(std::vector<Factor>{}), std::invalid_argument);
}

TEST(DesignSpace, ClampAndContains) {
    DesignSpace s({{"a", 0.0, 1.0, false}});
    EXPECT_DOUBLE_EQ(s.clamp(Vector{1.7})[0], 1.0);
    EXPECT_DOUBLE_EQ(s.clamp(Vector{-1.7})[0], -1.0);
    EXPECT_TRUE(s.contains(Vector{0.99}));
    EXPECT_FALSE(s.contains(Vector{1.2}));
}

TEST(Design, AppendAndCenterPoints) {
    Design a;
    a.points = ehdoe::num::Matrix{{1.0, 1.0}, {-1.0, -1.0}};
    Design b;
    b.points = ehdoe::num::Matrix{{0.5, -0.5}};
    a.append(b);
    EXPECT_EQ(a.runs(), 3u);
    a.add_center_points(2);
    EXPECT_EQ(a.runs(), 5u);
    EXPECT_DOUBLE_EQ(a.points(4, 0), 0.0);
    Design mismatched;
    mismatched.points = ehdoe::num::Matrix{{1.0}};
    EXPECT_THROW(a.append(mismatched), std::invalid_argument);
}

TEST(Design, NaturalView) {
    DesignSpace s({{"a", 10.0, 20.0, false}});
    Design d;
    d.points = ehdoe::num::Matrix{{-1.0}, {0.0}, {1.0}};
    const auto nat = to_natural(s, d);
    EXPECT_DOUBLE_EQ(nat(0, 0), 10.0);
    EXPECT_DOUBLE_EQ(nat(1, 0), 15.0);
    EXPECT_DOUBLE_EQ(nat(2, 0), 20.0);
}

TEST(Design, MinPairwiseDistance) {
    ehdoe::num::Matrix pts{{0.0, 0.0}, {3.0, 4.0}, {0.0, 1.0}};
    EXPECT_DOUBLE_EQ(min_pairwise_distance(pts), 1.0);
}
