// ResponseSurface analytic calculus + canonical analysis tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "doe/composite.hpp"
#include "numerics/stats.hpp"
#include "rsm/surface.hpp"

using namespace ehdoe::rsm;
using ehdoe::doe::DesignSpace;
using ehdoe::num::Vector;

namespace {

std::uint64_t bits(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

ResponseSurface make_surface(const std::function<double(const Vector&)>& truth,
                             std::size_t k = 2) {
    const auto d = ehdoe::doe::central_composite(k, {});
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) y[i] = truth(d.points.row(i));
    std::vector<ehdoe::doe::Factor> factors;
    for (std::size_t i = 0; i < k; ++i) {
        factors.push_back({"f" + std::to_string(i), 0.0, 10.0, false});
    }
    DesignSpace space(factors);
    return ResponseSurface(fit_ols(ModelSpec(k, ModelOrder::Quadratic), d.points, y), space,
                           "resp");
}

// Bowl with minimum at (0.5, -0.25).
double bowl(const Vector& x) {
    return 3.0 + (x[0] - 0.5) * (x[0] - 0.5) + 2.0 * (x[1] + 0.25) * (x[1] + 0.25);
}

// Dome with maximum at (0.2, 0.4).
double dome(const Vector& x) {
    return 5.0 - 2.0 * (x[0] - 0.2) * (x[0] - 0.2) - (x[1] - 0.4) * (x[1] - 0.4);
}

double saddle(const Vector& x) { return x[0] * x[0] - x[1] * x[1]; }

}  // namespace

TEST(Surface, GradientAnalytic) {
    const ResponseSurface s = make_surface(bowl);
    const Vector x{0.1, 0.3};
    const Vector g = s.gradient(x);
    EXPECT_NEAR(g[0], 2.0 * (0.1 - 0.5), 1e-9);
    EXPECT_NEAR(g[1], 4.0 * (0.3 + 0.25), 1e-9);
}

TEST(Surface, HessianAnalytic) {
    const ResponseSurface s = make_surface(bowl);
    const auto h = s.hessian(Vector{0.0, 0.0});
    EXPECT_NEAR(h(0, 0), 2.0, 1e-9);
    EXPECT_NEAR(h(1, 1), 4.0, 1e-9);
    EXPECT_NEAR(h(0, 1), 0.0, 1e-9);
}

TEST(Surface, StationaryPointMinimum) {
    const ResponseSurface s = make_surface(bowl);
    const auto sp = s.stationary_point();
    ASSERT_TRUE(sp.has_value());
    EXPECT_EQ(sp->kind, StationaryKind::Minimum);
    EXPECT_NEAR(sp->coded[0], 0.5, 1e-8);
    EXPECT_NEAR(sp->coded[1], -0.25, 1e-8);
    EXPECT_NEAR(sp->value, 3.0, 1e-8);
    EXPECT_TRUE(sp->inside_region);
    EXPECT_GT(sp->eigenvalues[0], 0.0);
}

TEST(Surface, StationaryPointMaximum) {
    const auto sp = make_surface(dome).stationary_point();
    ASSERT_TRUE(sp.has_value());
    EXPECT_EQ(sp->kind, StationaryKind::Maximum);
    EXPECT_NEAR(sp->coded[0], 0.2, 1e-8);
    EXPECT_NEAR(sp->value, 5.0, 1e-8);
}

TEST(Surface, StationaryPointSaddle) {
    const auto sp = make_surface(saddle).stationary_point();
    ASSERT_TRUE(sp.has_value());
    EXPECT_EQ(sp->kind, StationaryKind::Saddle);
    EXPECT_LT(sp->eigenvalues[0], 0.0);
    EXPECT_GT(sp->eigenvalues[1], 0.0);
}

TEST(Surface, NoStationaryPointForLinearModel) {
    const auto d = ehdoe::doe::central_composite(2, {});
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) y[i] = 1.0 + d.points(i, 0);
    DesignSpace space({{"a", 0.0, 1.0, false}, {"b", 0.0, 1.0, false}});
    ResponseSurface s(fit_ols(ModelSpec(2, ModelOrder::Linear), d.points, y), space, "lin");
    EXPECT_FALSE(s.stationary_point().has_value());
}

TEST(Surface, SliceGrid) {
    const ResponseSurface s = make_surface(bowl);
    const auto grid = s.slice(0, 1, Vector{0.0, 0.0}, 5);
    EXPECT_EQ(grid.rows(), 5u);
    EXPECT_EQ(grid.cols(), 5u);
    EXPECT_NEAR(grid(0, 0), bowl(Vector{-1.0, -1.0}), 1e-8);
    EXPECT_NEAR(grid(4, 4), bowl(Vector{1.0, 1.0}), 1e-8);
    EXPECT_THROW(s.slice(0, 0, Vector{0.0, 0.0}, 5), std::invalid_argument);
    EXPECT_THROW(s.slice(0, 1, Vector{0.0, 0.0}, 1), std::invalid_argument);
}

TEST(Surface, GridBestFindsExtremes) {
    const ResponseSurface s = make_surface(dome);
    const auto best = s.grid_best(21, true);
    EXPECT_NEAR(best.coded[0], 0.2, 0.1);
    EXPECT_NEAR(best.coded[1], 0.4, 0.1);
    EXPECT_NEAR(best.value, 5.0, 0.05);
    const auto worst = s.grid_best(21, false);
    EXPECT_LT(worst.value, best.value);
}

namespace {

// The grid scan as it was before blocks: one value() per point in odometer
// order, each coordinate formed in place, the first strict best kept.
ResponseSurface::GridBest odometer_grid_best(const ResponseSurface& s, std::size_t levels,
                                             bool maximize) {
    const std::size_t k = s.dimension();
    std::size_t total = 1;
    for (std::size_t f = 0; f < k; ++f) total *= levels;
    ResponseSurface::GridBest best{Vector(k), maximize ? -1e300 : 1e300};
    std::vector<std::size_t> idx(k, 0);
    Vector x(k);
    for (std::size_t it = 0; it < total; ++it) {
        for (std::size_t f = 0; f < k; ++f) {
            x[f] = -1.0 + 2.0 * static_cast<double>(idx[f]) / static_cast<double>(levels - 1);
        }
        const double v = s.value(x);
        if (maximize ? v > best.value : v < best.value) {
            best.value = v;
            best.coded = x;
        }
        for (std::size_t f = 0; f < k; ++f) {
            if (++idx[f] < levels) break;
            idx[f] = 0;
        }
    }
    return best;
}

ResponseSurface surface_with(const ModelSpec& model, Vector beta) {
    std::vector<ehdoe::doe::Factor> factors;
    for (std::size_t i = 0; i < model.dimension(); ++i) {
        factors.push_back({"f" + std::to_string(i), 0.0, 10.0, false});
    }
    return ResponseSurface(FitResult{model, std::move(beta), {}, {}, {}}, DesignSpace(factors),
                           "resp");
}

}  // namespace

TEST(Surface, GridBestMatchesOdometerScanBitwise) {
    // A seeded quadratic, a sum of squares (ties between mirrored points)
    // and x0 alone (whole grid faces tie, so the first strict best must
    // win), over every level count 2-7 and both directions.
    using ehdoe::num::Monomial;
    for (std::size_t k : {1u, 2u, 3u, 6u}) {
        const ModelSpec quad(k, ModelOrder::Quadratic);
        ehdoe::num::Rng rng = ehdoe::num::make_rng(40 + k);
        Vector seeded(quad.num_terms()), squares(quad.num_terms());
        for (std::size_t j = 0; j < quad.num_terms(); ++j) {
            seeded[j] = ehdoe::num::uniform(rng, -3.0, 3.0);
            for (unsigned e : quad.terms()[j].exponents) {
                if (e == 2) squares[j] = 1.0;
            }
        }
        std::vector<unsigned> x0(k, 0);
        x0[0] = 1;
        const ResponseSurface surfaces[] = {
            surface_with(quad, seeded), surface_with(quad, squares),
            surface_with(ModelSpec(k, std::vector<Monomial>{Monomial(x0)}), Vector{1.0})};
        for (const ResponseSurface& s : surfaces) {
            for (std::size_t levels = 2; levels <= 7; ++levels) {
                for (bool maximize : {true, false}) {
                    const auto ref = odometer_grid_best(s, levels, maximize);
                    const auto got = s.grid_best(levels, maximize);
                    const std::string where = s.fit().model.describe() + ", " +
                                              std::to_string(levels) + " levels, " +
                                              (maximize ? "max" : "min");
                    EXPECT_EQ(bits(got.value), bits(ref.value)) << where;
                    ASSERT_EQ(got.coded.size(), k) << where;
                    for (std::size_t f = 0; f < k; ++f) {
                        EXPECT_EQ(bits(got.coded[f]), bits(ref.coded[f])) << where << ", f" << f;
                    }
                }
            }
        }
    }
    // x0 alone: the first point of the x0 = +1 face is every other factor
    // at its low level.
    const ResponseSurface face = surface_with(
        ModelSpec(3, std::vector<Monomial>{Monomial(std::vector<unsigned>{1, 0, 0})}),
        Vector{1.0});
    const auto best = face.grid_best(5, true);
    EXPECT_EQ(best.value, 1.0);
    EXPECT_EQ(best.coded[0], 1.0);
    EXPECT_EQ(best.coded[1], -1.0);
    EXPECT_EQ(best.coded[2], -1.0);
}

TEST(Surface, GradientMatchesFiniteDifference) {
    const ResponseSurface s = make_surface(dome);
    const Vector x{0.11, -0.37};
    const Vector g = s.gradient(x);
    const double h = 1e-6;
    for (std::size_t j = 0; j < 2; ++j) {
        Vector xp = x, xm = x;
        xp[j] += h;
        xm[j] -= h;
        EXPECT_NEAR(g[j], (s.value(xp) - s.value(xm)) / (2.0 * h), 1e-5);
    }
}
