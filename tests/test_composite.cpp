// CCD / Box-Behnken design tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "doe/composite.hpp"

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

TEST(Ccd, RunCountSmallK) {
    CcdOptions o;
    o.center_points = 4;
    const Design d = central_composite(3, o);
    EXPECT_EQ(d.runs(), 8u + 6u + 4u);
}

TEST(Ccd, FractionalCoreHalvesCubeForK6) {
    CcdOptions o;
    o.center_points = 4;
    const Design d = central_composite(6, o);
    EXPECT_EQ(d.runs(), 32u + 12u + 4u);  // 2^(6-1) + 2k + nc
}

TEST(Ccd, RotatableAlpha) {
    CcdOptions o;
    EXPECT_NEAR(ccd_alpha_value(2, o), std::sqrt(2.0), 1e-12);       // 4^(1/4)
    EXPECT_NEAR(ccd_alpha_value(3, o), std::pow(8.0, 0.25), 1e-12);
}

TEST(Ccd, FaceCentredStaysInCube) {
    CcdOptions o;
    o.variant = CcdVariant::FaceCentred;
    const Design d = central_composite(4, o);
    for (std::size_t i = 0; i < d.runs(); ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            EXPECT_LE(std::fabs(d.points(i, j)), 1.0 + 1e-12);
        }
    }
}

TEST(Ccd, CircumscribedAxialsAtAlpha) {
    CcdOptions o;
    o.variant = CcdVariant::Circumscribed;
    o.center_points = 0;
    const Design d = central_composite(2, o);
    const double alpha = ccd_alpha_value(2, o);
    // Last 2k rows are axial points.
    double max_abs = 0.0;
    for (std::size_t i = 4; i < 8; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            max_abs = std::max(max_abs, std::fabs(d.points(i, j)));
        }
    }
    EXPECT_NEAR(max_abs, alpha, 1e-12);
}

TEST(Ccd, CenterPointsAreZeroRows) {
    CcdOptions o;
    o.center_points = 3;
    const Design d = central_composite(2, o);
    for (std::size_t i = d.runs() - 3; i < d.runs(); ++i) {
        EXPECT_DOUBLE_EQ(d.points(i, 0), 0.0);
        EXPECT_DOUBLE_EQ(d.points(i, 1), 0.0);
    }
}

TEST(Ccd, ProgramVariantsGoldenIsBitwiseStable) {
    // The variants programs run (circumscribed in bench_farm and
    // doe_playground, face-centred in DesignFlow and the benches) at the
    // default centre points, for k = 2 and for the six factors.
    struct Golden {
        std::size_t k;
        CcdVariant variant;
        std::size_t runs;
        std::uint64_t digest;
        const char* kind;
    };
    const Golden goldens[] = {
        {2, CcdVariant::Circumscribed, 12, 0x67d75606e420e935ull,
         "ccd(circumscribed, alpha=1.414214)"},
        {2, CcdVariant::FaceCentred, 12, 0x2562fbf83e426f25ull,
         "ccd(face-centred, alpha=1.000000)"},
        {6, CcdVariant::Circumscribed, 48, 0x3196a5b6ec0c5e45ull,
         "ccd(circumscribed, alpha=2.378414)"},
        {6, CcdVariant::FaceCentred, 48, 0xc57e3f912e880fa5ull,
         "ccd(face-centred, alpha=1.000000)"},
    };
    for (const Golden& g : goldens) {
        CcdOptions o;
        o.variant = g.variant;
        const Design d = central_composite(g.k, o);
        EXPECT_EQ(d.runs(), g.runs) << g.kind;
        EXPECT_EQ(bits_digest(d.points), g.digest) << g.kind;
        EXPECT_EQ(d.kind, g.kind);
    }
}

TEST(BoxBehnken, StructureK3) {
    const Design d = box_behnken(3, 3);
    EXPECT_EQ(d.runs(), 12u + 3u);
    // Every non-centre run has exactly one zero coordinate (k=3).
    for (std::size_t i = 0; i < 12; ++i) {
        int zeros = 0;
        for (std::size_t j = 0; j < 3; ++j) {
            if (d.points(i, j) == 0.0) ++zeros;
        }
        EXPECT_EQ(zeros, 1);
    }
}

TEST(BoxBehnken, NeverVisitsCorners) {
    const Design d = box_behnken(4, 1);
    for (std::size_t i = 0; i < d.runs(); ++i) {
        double l1 = 0.0;
        for (std::size_t j = 0; j < 4; ++j) l1 += std::fabs(d.points(i, j));
        EXPECT_LE(l1, 2.0 + 1e-12);  // at most two active factors
    }
    EXPECT_THROW(box_behnken(2), std::invalid_argument);
}

// Property: CCD supports a quadratic fit for every k (enough distinct runs).
#include "numerics/polynomial.hpp"
#include "numerics/linalg.hpp"

class CcdFitP : public ::testing::TestWithParam<int> {};

TEST_P(CcdFitP, SupportsQuadraticModel) {
    const auto k = static_cast<std::size_t>(GetParam());
    const Design d = central_composite(k, CcdOptions{});
    const auto terms = ehdoe::num::quadratic_basis(k);
    ASSERT_GE(d.runs(), terms.size());
    const auto x = ehdoe::num::model_matrix(terms, d.points);
    EXPECT_EQ(ehdoe::num::QrFactor(x).rank(), terms.size());
}

INSTANTIATE_TEST_SUITE_P(Ks, CcdFitP, ::testing::Values(2, 3, 4, 5, 6, 7, 8));
