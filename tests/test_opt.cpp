// Optimizer suite tests: local searches and global heuristics, plus the
// batch-parallel population paths (GA generations / SA restart chains
// through a BatchObjective) which must match the serial paths bitwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "doe/batch_runner.hpp"
#include "opt/anneal.hpp"
#include "opt/genetic.hpp"
#include "opt/nelder_mead.hpp"
#include "opt/pattern.hpp"

using namespace ehdoe::opt;
using ehdoe::num::Vector;

namespace {

// Smooth bowl, minimum at (0.3, -0.4), value 1.
double bowl(const Vector& x) {
    return 1.0 + (x[0] - 0.3) * (x[0] - 0.3) + 2.0 * (x[1] + 0.4) * (x[1] + 0.4);
}

// Rastrigin-lite: multimodal with global minimum at origin.
double multimodal(const Vector& x) {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        v += x[i] * x[i] - 0.3 * std::cos(6.0 * M_PI * x[i]) + 0.3;
    }
    return v;
}

const Bounds kCube2 = Bounds::coded_cube(2);

// The serial batch: `f` at every point in input order, as a one-thread
// evaluation backend runs it.
BatchObjective serial_batch(Objective f) {
    return [f = std::move(f)](const std::vector<Vector>& points) {
        std::vector<double> values;
        for (const Vector& x : points) values.push_back(f(x));
        return values;
    };
}

}  // namespace

TEST(Bounds, Basics) {
    EXPECT_EQ(kCube2.dimension(), 2u);
    EXPECT_DOUBLE_EQ(kCube2.clamp(Vector{2.0, -3.0})[0], 1.0);
    Bounds bad;
    bad.lo = Vector{0.0};
    bad.hi = Vector{0.0};
    EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(NelderMead, FindsBowlMinimum) {
    const OptResult r = nelder_mead(bowl, kCube2, Vector{0.9, 0.9});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 0.3, 1e-4);
    EXPECT_NEAR(r.x[1], -0.4, 1e-4);
    EXPECT_NEAR(r.value, 1.0, 1e-7);
    EXPECT_GT(r.evaluations, 0u);
}

TEST(NelderMead, RespectsBoundsWhenMinimumOutside) {
    // Shift the bowl minimum outside the cube: solution lands on the face.
    const Objective f = [](const Vector& x) {
        return (x[0] - 2.0) * (x[0] - 2.0) + x[1] * x[1];
    };
    const OptResult r = nelder_mead(f, kCube2, Vector{0.0, 0.0});
    EXPECT_NEAR(r.x[0], 1.0, 1e-5);
    EXPECT_NEAR(r.x[1], 0.0, 1e-4);
}

TEST(NelderMead, GoldenTrajectoryIsBitwiseStable) {
    // A curved valley whose unconstrained minimum (1.5, 2.25, -0.675) lies
    // outside the box, floored at 0.26 so some contractions fail and the
    // simplex shrinks. Only +, -, *, / and clamping: the same bits on every
    // platform. The run reflects, expands, contracts both ways and shrinks;
    // any change to the per-coordinate move arithmetic moves these bits.
    const Objective valley = [](const Vector& x) {
        const double a = 1.5 - x[0];
        const double b = x[1] - x[0] * x[0];
        const double c = x[2] + 0.3 * x[1];
        return std::clamp(a * a + 10.0 * b * b + c * c / (1.0 + x[0] * x[0]), 0.26, 1e300);
    };
    Bounds box;
    box.lo = Vector{-1.0, -0.5, -2.0};
    box.hi = Vector{1.0, 1.5, 0.5};
    const OptResult r = nelder_mead(valley, box, Vector{-0.8, 0.6, 0.3});
    EXPECT_EQ(r.x[0], 0x1.fc2e84c8f92ccp-1);
    EXPECT_EQ(r.x[1], 0x1.fbf670d912056p-1);
    EXPECT_EQ(r.x[2], -0x1.68a64b2328276p-2);
    EXPECT_EQ(r.value, 0x1.0a3d70a3d70a4p-2);
    EXPECT_EQ(r.evaluations, 96u);
    EXPECT_EQ(r.iterations, 51u);
    EXPECT_TRUE(r.converged);
}

TEST(NelderMead, SimplexPicksMatchSortedOrderOnTies) {
    // The picks one pass makes against the iota + std::sort order they
    // replaced (best = order[0], worst = order[k], second-worst =
    // order[k-1]), on tie-heavy vertex values for every simplex up to
    // k = 15. The values include -0.0 and 0.0, which compare equal.
    const double pool[] = {-1.5, -0.0, 0.0, 0.25, 2.0};
    std::mt19937_64 rng(17);
    for (std::size_t k = 1; k <= 15; ++k) {
        std::vector<double> fv(k + 1);
        std::vector<std::size_t> order(k + 1);
        for (int trial = 0; trial < 4000; ++trial) {
            const std::size_t distinct = 1 + rng() % 5;
            for (double& v : fv) v = pool[rng() % distinct];
            std::iota(order.begin(), order.end(), std::size_t{0});
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) { return fv[a] < fv[b]; });
            const SimplexPicks p = simplex_picks(fv.data(), fv.size());
            ASSERT_EQ(p.best, order[0]) << "k = " << k << ", trial " << trial;
            ASSERT_EQ(p.worst, order[k]) << "k = " << k << ", trial " << trial;
            ASSERT_EQ(p.second_worst, order[k - 1]) << "k = " << k << ", trial " << trial;
        }
    }
}

TEST(NelderMead, SimplexPicksNeverLetANanDisplaceAPick) {
    // The documented NaN rule: a NaN compares false, so it never displaces
    // a pick and is picked only where a scan starts (best and worst at
    // vertex 0, second-worst at the first vertex that is not the worst).
    const double nan = std::nan("");
    struct Case {
        std::vector<double> values;
        std::size_t best, worst, second_worst;
    };
    const Case cases[] = {
        {{nan, 1.0, 2.0}, 0, 0, 2},            // NaN where every scan starts
        {{1.0, 2.0, nan}, 0, 1, 0},            // a NaN last is never picked
        {{1.0, nan, 2.0}, 0, 2, 0},            // nor in the middle
        {{3.0, nan, 1.0}, 2, 0, 1},            // second-worst's scan starts at the NaN
        {{2.0, 5.0, nan, 4.0}, 0, 1, 3},       // NaN beside the worst
        {{nan, nan}, 0, 0, 1},                 // all NaN: the scan starts
        {{-0.0, nan, 0.0, nan}, 0, 2, 0},      // signed zeros compare equal
        {{4.0, 4.0, nan, 1.0, nan}, 3, 1, 0},  // ties still break by index
    };
    for (const Case& c : cases) {
        const SimplexPicks p = simplex_picks(c.values.data(), c.values.size());
        EXPECT_EQ(p.best, c.best) << ::testing::PrintToString(c.values);
        EXPECT_EQ(p.worst, c.worst) << ::testing::PrintToString(c.values);
        EXPECT_EQ(p.second_worst, c.second_worst) << ::testing::PrintToString(c.values);
    }
}

TEST(PatternSearch, FindsBowlMinimum) {
    const OptResult r = pattern_search(bowl, kCube2, Vector{0.9, -0.9});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 0.3, 1e-4);
    EXPECT_NEAR(r.x[1], -0.4, 1e-4);
}

TEST(Genetic, FindsGlobalOnMultimodal) {
    GeneticOptions o;
    o.population = 60;
    o.generations = 80;
    o.seed = 9;
    const OptResult r = genetic_minimize(serial_batch(multimodal), kCube2, o);
    EXPECT_NEAR(r.x[0], 0.0, 0.05);
    EXPECT_NEAR(r.x[1], 0.0, 0.05);
    EXPECT_LT(r.value, 0.05);
}

TEST(Genetic, EvaluationBudgetAccounted) {
    GeneticOptions o;
    o.population = 20;
    o.generations = 10;
    const OptResult r = genetic_minimize(serial_batch(bowl), kCube2, o);
    // Initial pop + (pop - 2 elites) per generation.
    EXPECT_EQ(r.evaluations, 20u + 10u * (20u - 2u));
}

TEST(Genetic, Validation) {
    GeneticOptions o;
    o.population = 2;
    EXPECT_THROW(genetic_minimize(serial_batch(bowl), kCube2, o), std::invalid_argument);
}

TEST(Anneal, FindsGlobalOnMultimodal) {
    AnnealOptions o;
    o.seed = 21;
    o.moves_per_epoch = 60;
    const OptResult r = simulated_annealing(serial_batch(multimodal), kCube2, Vector{0.8, -0.8}, o);
    EXPECT_LT(r.value, 0.1);
}

TEST(Anneal, Validation) {
    AnnealOptions o;
    o.restarts = 0;
    EXPECT_THROW(simulated_annealing(serial_batch(bowl), kCube2, Vector{0.0, 0.0}, o),
                 std::invalid_argument);
    EXPECT_THROW(simulated_annealing(serial_batch(bowl), kCube2, Vector{0.0}),
                 std::invalid_argument);
}

namespace {

/// Batch objective that routes every population through a multi-threaded
/// BatchRunner — the "direct on the (fake) simulator, but parallel" path.
/// Also hands back the runner so tests can audit simulation counts.
struct RunnerBackedObjective {
    explicit RunnerBackedObjective(std::size_t threads) {
        ehdoe::doe::RunnerOptions o;
        o.threads = threads;
        runner = std::make_shared<ehdoe::doe::BatchRunner>(
            [](const Vector& x) {
                return std::map<std::string, double>{{"y", multimodal(x)}};
            },
            o);
    }
    BatchObjective batch() const {
        auto r = runner;
        return [r](const std::vector<Vector>& pts) {
            const auto rows = r->evaluate(pts);
            std::vector<double> values;
            values.reserve(rows.size());
            for (const auto& m : rows) values.push_back(m.at("y"));
            return values;
        };
    }
    std::shared_ptr<ehdoe::doe::BatchRunner> runner;
};

}  // namespace

TEST(Genetic, BatchParallelMatchesSerialBitwise) {
    GeneticOptions o;
    o.population = 24;
    o.generations = 15;
    o.seed = 11;
    const OptResult serial = genetic_minimize(serial_batch(multimodal), kCube2, o);

    RunnerBackedObjective direct(4);
    const OptResult parallel = genetic_minimize(direct.batch(), kCube2, o);

    // The contract: identical trajectory endpoint, value and accounting.
    ASSERT_EQ(parallel.x.size(), serial.x.size());
    for (std::size_t i = 0; i < serial.x.size(); ++i) {
        EXPECT_EQ(parallel.x[i], serial.x[i]) << i;  // bitwise, not approx
    }
    EXPECT_EQ(parallel.value, serial.value);
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    // The engine's memoization means revisited genomes (elites are not
    // re-evaluated, but mutation can recreate a point) cost nothing extra;
    // simulations never exceed the serial path's evaluation count.
    EXPECT_LE(direct.runner->stats().simulations, serial.evaluations);
}

TEST(Anneal, BatchParallelRestartsMatchSerialBitwise) {
    AnnealOptions o;
    o.seed = 7;
    o.moves_per_epoch = 10;
    o.restarts = 3;
    const OptResult serial =
        simulated_annealing(serial_batch(multimodal), kCube2, Vector{0.8, -0.8}, o);

    RunnerBackedObjective direct(3);
    const OptResult parallel =
        simulated_annealing(direct.batch(), kCube2, Vector{0.8, -0.8}, o);

    ASSERT_EQ(parallel.x.size(), serial.x.size());
    for (std::size_t i = 0; i < serial.x.size(); ++i) {
        EXPECT_EQ(parallel.x[i], serial.x[i]) << i;
    }
    EXPECT_EQ(parallel.value, serial.value);
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
    EXPECT_EQ(parallel.iterations, serial.iterations);
}

TEST(Anneal, RestartsBeatSingleChainOnMultimodal) {
    AnnealOptions one;
    one.seed = 3;
    one.moves_per_epoch = 8;
    AnnealOptions many = one;
    many.restarts = 4;
    const BatchObjective f = serial_batch(multimodal);
    const OptResult a = simulated_annealing(f, kCube2, Vector{0.9, 0.9}, one);
    const OptResult b = simulated_annealing(f, kCube2, Vector{0.9, 0.9}, many);
    EXPECT_LE(b.value, a.value);  // more chains can only improve the best
    EXPECT_EQ(b.evaluations, 4u * a.evaluations);
}

namespace {

// A 6-D coupled quadratic over the coded cube, minimum inside it; only +,
// - and *, so the same bits on every platform.
double coupled6(const Vector& x) {
    const double c[6] = {0.35, -0.2, 0.6, -0.45, 0.1, 0.25};
    double v = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
        const double e = x[i] - c[i];
        v += (1.0 + 0.5 * static_cast<double>(i)) * e * e;
    }
    const double q = x[0] * x[1] - 0.3 * x[2] + 0.1;
    return v + 0.8 * q * q;
}

struct Golden {
    std::vector<double> x;
    double value;
    std::size_t evaluations;
    std::size_t iterations;
};

void expect_golden(const OptResult& r, const Golden& g) {
    ASSERT_EQ(r.x.size(), g.x.size());
    for (std::size_t i = 0; i < g.x.size(); ++i) EXPECT_EQ(r.x[i], g.x[i]) << i;
    EXPECT_EQ(r.value, g.value);
    EXPECT_EQ(r.evaluations, g.evaluations);
    EXPECT_EQ(r.iterations, g.iterations);
    EXPECT_TRUE(r.converged);
}

}  // namespace

// The settings the programs run each algorithm at (GA and SA as
// bench_t5_optim configures them, pattern search and Nelder-Mead at their
// defaults), on one fixed objective: a change to an algorithm's constants
// or control flow moves these bits.
TEST(Genetic, BenchT5SettingsGoldenIsBitwiseStable) {
    GeneticOptions o;
    o.population = 30;
    o.generations = 40;
    o.seed = 5;
    expect_golden(genetic_minimize(serial_batch(coupled6), Bounds::coded_cube(6), o),
                  {{0x1.525599f955c4dp-2, -0x1.601fe25cf6a15p-3, 0x1.296b89f5e3d04p-1,
                    -0x1.cfd16ba4dbf47p-2, 0x1.af78e73b1c7b2p-4, 0x1.07a45ddc84cbbp-2},
                   0x1.0bc12f70878e9p-6,
                   1150,
                   40});
}

TEST(Anneal, BenchT5SettingsGoldenIsBitwiseStable) {
    AnnealOptions o;
    o.moves_per_epoch = 25;
    o.seed = 5;
    o.restarts = 4;
    expect_golden(
        simulated_annealing(serial_batch(coupled6), Bounds::coded_cube(6), Vector(6), o),
        {{0x1.5523d2d583fe3p-2, -0x1.53e316a5ea703p-3, 0x1.29eb9e60ee80ep-1,
          -0x1.c90990a120066p-2, 0x1.993dd262cf82bp-4, 0x1.00ae06679cb78p-2},
         0x1.097ab9fc13944p-6,
         22504,
         225});
}

TEST(PatternSearch, GoldenIsBitwiseStable) {
    expect_golden(pattern_search(coupled6, Bounds::coded_cube(6), Vector(6)),
                  {{0x1.5317bap-2, -0x1.694668p-3, 0x1.2afdc4p-1, -0x1.ccccccp-2, 0x1.999998p-4,
                    0x1p-2},
                   0x1.05e663b2b75aep-6,
                   928,
                   52});
}

TEST(NelderMead, SixDimensionalGoldenIsBitwiseStable) {
    // Even k: every centroid coordinate goes through a Pair lane (the
    // 3-D golden above covers the odd tail).
    expect_golden(nelder_mead(coupled6, Bounds::coded_cube(6),
                              Vector{-0.9, 0.9, -0.9, 0.9, -0.9, 0.9}),
                  {{0x1.53160af46e47ap-2, -0x1.69388dd5a4bccp-3, 0x1.2afcfae772bdp-1,
                    -0x1.cccb2b082fdfdp-2, 0x1.9992e1b289ed4p-4, 0x1.fffe54fdeab11p-3},
                   0x1.05e665602b3c6p-6,
                   384,
                   238});
}

TEST(CountedObjective, ExactUnderConcurrentInvocation) {
    // The GA/SA objective is now invoked from evaluation-backend worker
    // threads; the count must stay exact, not approximately right.
    CountedObjective obj([](const Vector& x) { return x[0]; });
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kCallsPerThread = 5000;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&obj] {
            const Vector x{1.0};
            for (std::size_t i = 0; i < kCallsPerThread; ++i) obj(x);
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(obj.count(), kThreads * kCallsPerThread);
}

TEST(CountedBatchObjective, CountsPointsAndEnforcesSize) {
    CountedBatchObjective counted(serial_batch([](const Vector& x) { return x[0] * 2.0; }));
    const std::vector<Vector> pts{Vector{1.0}, Vector{2.0}, Vector{3.0}};
    const std::vector<double> v = counted(pts);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[1], 4.0);
    EXPECT_EQ(counted.count(), 3u);

    CountedBatchObjective broken([](const std::vector<Vector>& xs) {
        return std::vector<double>(xs.size() + 1, 0.0);
    });
    EXPECT_THROW(broken(pts), std::runtime_error);
    EXPECT_EQ(broken.count(), 0u);  // nothing legitimate was evaluated
}

// Property: every local optimizer solves a rotated quadratic from any corner.
class LocalOptP : public ::testing::TestWithParam<int> {};

TEST_P(LocalOptP, RotatedQuadraticFromCorners) {
    const Objective f = [](const Vector& x) {
        const double u = 0.8 * x[0] + 0.6 * x[1] - 0.2;
        const double v = -0.6 * x[0] + 0.8 * x[1] + 0.1;
        return u * u + 3.0 * v * v;
    };
    for (double cx : {-0.9, 0.9}) {
        for (double cy : {-0.9, 0.9}) {
            const OptResult r = GetParam() == 0 ? nelder_mead(f, kCube2, Vector{cx, cy})
                                                : pattern_search(f, kCube2, Vector{cx, cy});
            EXPECT_LT(r.value, 1e-5);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Methods, LocalOptP, ::testing::Values(0, 1));
