// D-optimal exchange tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "doe/lhs.hpp"
#include "doe/optimal.hpp"

using namespace ehdoe::doe;
using ehdoe::num::linear_basis;
using ehdoe::num::quadratic_basis;

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

TEST(DOptimal, LinearModelPicksCorners) {
    // For a first-order model the D-optimal design lives at the cube
    // corners; with runs == terms the chosen points must all be corners.
    const auto terms = linear_basis(2);
    const DOptimalResult r = d_optimal(4, 2, terms, 42u);
    for (std::size_t i = 0; i < r.design.runs(); ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            EXPECT_NEAR(std::abs(r.design.points(i, j)), 1.0, 1e-12);
        }
    }
    EXPECT_GT(r.log_det, -1e300);
}

TEST(DOptimal, BeatsRandomDesign) {
    const auto terms = quadratic_basis(3);
    const std::size_t runs = 14;
    const DOptimalResult r = d_optimal(runs, 3, terms, 7u);
    const Design rand_d = latin_hypercube(runs, 3, 7);
    EXPECT_GT(r.log_det, log_det_information(rand_d, terms) + 1.0);
}

TEST(DOptimal, SupportsRequestedModel) {
    const auto terms = quadratic_basis(2);
    const DOptimalResult r = d_optimal(8, 2, terms, 3u);
    // Non-singular information matrix == finite log det.
    EXPECT_TRUE(std::isfinite(r.log_det));
    EXPECT_EQ(r.design.runs(), 8u);
}

TEST(DOptimal, PlaygroundDesignGoldenIsBitwiseStable) {
    // doe_playground's design: 18 runs over k = 4 for a quadratic model.
    const DOptimalResult r = d_optimal(18, 4, quadratic_basis(4), 42u);
    EXPECT_EQ(r.log_det, 0x1.f5f3fbee074bcp+4);
    EXPECT_EQ(r.passes_used, 3u);
    EXPECT_EQ(r.design.kind, "d-optimal(n=18)");
    EXPECT_EQ(bits_digest(r.design.points), 0x62cf3f07393d76a5ull);
}

TEST(DOptimal, Validation) {
    const auto terms = quadratic_basis(2);
    ehdoe::num::Rng rng = ehdoe::num::make_rng(1);
    EXPECT_THROW(d_optimal(3, 2, terms, rng), std::invalid_argument);  // runs < terms
    EXPECT_THROW(d_optimal(8, 0, terms, rng), std::invalid_argument);
}

TEST(DOptimal, LogDetSingularIsMinusInf) {
    Design d;
    d.points = ehdoe::num::Matrix(6, 2);  // all-zero rows: singular for quadratics
    EXPECT_EQ(log_det_information(d, quadratic_basis(2)),
              -std::numeric_limits<double>::infinity());
}

TEST(DOptimal, DeterministicFromSeed) {
    const auto terms = linear_basis(3);
    const DOptimalResult a = d_optimal(6, 3, terms, 11u);
    const DOptimalResult b = d_optimal(6, 3, terms, 11u);
    EXPECT_TRUE(ehdoe::num::approx_equal(a.design.points, b.design.points, 0.0));
}
