// DoE experiment runner tests: one BatchRunner per call, as the benches run
// designs.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "doe/batch_runner.hpp"
#include "doe/factorial.hpp"

using namespace ehdoe::doe;
using ehdoe::num::Vector;

namespace {

const DesignSpace kSpace({{"x", 0.0, 10.0, false}, {"y", -5.0, 5.0, false}});

Simulation quadratic_sim() {
    return [](const Vector& nat) {
        return std::map<std::string, double>{
            {"f", nat[0] * nat[0] + 2.0 * nat[1]},
            {"g", nat[0] - nat[1]},
        };
    };
}

}  // namespace

TEST(Runner, CollectsResponsesInOrder) {
    const Design d = full_factorial_2level(2);
    const RunResults r = BatchRunner(quadratic_sim()).run_design(kSpace, d);
    EXPECT_EQ(r.simulations, 4u);
    EXPECT_EQ(r.response_names.size(), 2u);
    EXPECT_EQ(r.responses.rows(), 4u);
    // Check one point: coded (-1,-1) -> natural (0,-5) -> f = -10.
    const auto f = r.response("f");
    bool found = false;
    for (std::size_t i = 0; i < 4; ++i) {
        if (r.natural(i, 0) == 0.0 && r.natural(i, 1) == -5.0) {
            EXPECT_DOUBLE_EQ(f[i], -10.0);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    EXPECT_THROW(r.response("nope"), std::invalid_argument);
}

TEST(Runner, ThreadedMatchesSerial) {
    const Design d = full_factorial(2, 5);  // 25 runs
    RunnerOptions serial;
    RunnerOptions par;
    par.threads = 8;
    const RunResults a = BatchRunner(quadratic_sim(), serial).run_design(kSpace, d);
    const RunResults b = BatchRunner(quadratic_sim(), par).run_design(kSpace, d);
    EXPECT_TRUE(ehdoe::num::approx_equal(a.responses, b.responses, 0.0));
}

TEST(Runner, ReplicatesAverageNoise) {
    // Deterministic "noise" from an atomic counter: replicates average it.
    std::atomic<int> calls{0};
    const Simulation noisy = [&calls](const Vector&) {
        const int c = calls.fetch_add(1);
        return std::map<std::string, double>{{"y", (c % 2 == 0) ? 1.0 : 3.0}};
    };
    RunnerOptions o;
    o.replicates = 2;
    ehdoe::num::Matrix pts(1, 2);
    const RunResults r = BatchRunner(noisy, o).run_points(kSpace, pts);
    EXPECT_EQ(r.simulations, 2u);
    EXPECT_DOUBLE_EQ(r.responses(0, 0), 2.0);
}

TEST(Runner, PropagatesSimulationExceptions) {
    const Simulation bad = [](const Vector&) -> std::map<std::string, double> {
        throw std::runtime_error("boom");
    };
    ehdoe::num::Matrix pts(2, 2);
    EXPECT_THROW(BatchRunner(bad).run_points(kSpace, pts), std::runtime_error);
    RunnerOptions par;
    par.threads = 4;
    EXPECT_THROW(BatchRunner(bad, par).run_points(kSpace, pts), std::runtime_error);
}

TEST(Runner, RejectsInconsistentResponses) {
    std::atomic<int> calls{0};
    const Simulation flaky = [&calls](const Vector&) {
        if (calls.fetch_add(1) == 0) {
            return std::map<std::string, double>{{"a", 1.0}, {"b", 2.0}};
        }
        return std::map<std::string, double>{{"a", 1.0}};
    };
    // Distinct points: identical ones would (correctly) be served from the
    // memoization cache and never reach the flaky simulation twice.
    ehdoe::num::Matrix pts(2, 2);
    pts(1, 0) = 0.5;
    EXPECT_THROW(BatchRunner(flaky).run_points(kSpace, pts), std::runtime_error);
}

TEST(Runner, Validation) {
    ehdoe::num::Matrix pts(2, 3);  // wrong dimension
    EXPECT_THROW(BatchRunner(quadratic_sim()).run_points(kSpace, pts), std::invalid_argument);
    ehdoe::num::Matrix ok(2, 2);
    EXPECT_THROW(BatchRunner(Simulation{}).run_points(kSpace, ok), std::invalid_argument);
    RunnerOptions o;
    o.replicates = 0;
    EXPECT_THROW(BatchRunner(quadratic_sim(), o).run_points(kSpace, ok), std::invalid_argument);
}

TEST(Runner, WallClockRecorded) {
    const Design d = full_factorial_2level(2);
    const RunResults r = BatchRunner(quadratic_sim()).run_design(kSpace, d);
    EXPECT_GE(r.wall_seconds, 0.0);
}
