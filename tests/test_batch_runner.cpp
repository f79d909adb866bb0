// Batch evaluation engine tests: determinism under concurrency, memoization
// of repeated points, exception propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "core/toolkit.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "doe/factorial.hpp"

using namespace ehdoe::doe;
using ehdoe::num::Vector;

namespace {

const DesignSpace kSpace({{"x", 0.0, 10.0, false}, {"y", -5.0, 5.0, false}});

Simulation transcendental_sim(std::atomic<std::size_t>* calls = nullptr) {
    // Deliberately irrational arithmetic: bitwise comparisons below would
    // catch any reordering of floating-point work across thread counts.
    return [calls](const Vector& nat) {
        if (calls) calls->fetch_add(1);
        const double x = nat[0], y = nat[1];
        return std::map<std::string, double>{
            {"f", std::sin(x) * std::exp(0.3 * y) + std::sqrt(x + 1.0)},
            {"g", std::cos(x * y) / (1.0 + x * x)},
        };
    };
}

}  // namespace

TEST(BatchRunner, BitwiseIdenticalAcrossThreadCounts) {
    const Design d = full_factorial(2, 7);  // 49 distinct points
    RunnerOptions serial;
    const RunResults base = BatchRunner(transcendental_sim(), serial).run_design(kSpace, d);
    for (std::size_t threads : {2u, 4u, 8u}) {
        RunnerOptions o;
        o.threads = threads;  // 7, 13 and 25 batches -> real interleaving
        const RunResults r = BatchRunner(transcendental_sim(), o).run_design(kSpace, d);
        ASSERT_EQ(r.responses.rows(), base.responses.rows());
        ASSERT_EQ(r.response_names, base.response_names);
        // Bitwise, not approximate: determinism is the contract.
        EXPECT_TRUE(ehdoe::num::approx_equal(r.responses, base.responses, 0.0))
            << "threads=" << threads;
    }
}

TEST(BatchRunner, CentreReplicatesHitTheCache) {
    std::atomic<std::size_t> calls{0};
    BatchRunner runner(transcendental_sim(&calls));
    const Design ccd = central_composite(
        2, CcdOptions{CcdVariant::FaceCentred, CcdAlpha::Rotatable, 5, true});
    const RunResults r = runner.run_design(kSpace, ccd);
    // 4 factorial + 4 axial + 5 centre points: 9 unique simulations.
    EXPECT_EQ(r.design.runs(), 13u);
    EXPECT_EQ(r.simulations, 9u);
    EXPECT_EQ(r.cache_hits, 4u);
    EXPECT_EQ(calls.load(), 9u);
    EXPECT_EQ(runner.cache_size(), 9u);

    // Re-running the same design is free.
    const RunResults again = runner.run_design(kSpace, ccd);
    EXPECT_EQ(again.simulations, 0u);
    EXPECT_EQ(again.cache_hits, 13u);
    EXPECT_EQ(calls.load(), 9u);
    EXPECT_TRUE(ehdoe::num::approx_equal(again.responses, r.responses, 0.0));

    // Lifetime stats accumulate across calls.
    EXPECT_EQ(runner.stats().points, 26u);
    EXPECT_EQ(runner.stats().simulations, 9u);
    EXPECT_EQ(runner.stats().cache_hits, 17u);
}

TEST(BatchRunner, EvaluatePointIsCached) {
    std::atomic<std::size_t> calls{0};
    BatchRunner runner(transcendental_sim(&calls));
    const Vector p{2.5, 1.0};
    const ResponseMap a = runner.evaluate_point(p);
    const ResponseMap b = runner.evaluate_point(p);
    EXPECT_EQ(calls.load(), 1u);
    EXPECT_EQ(a, b);
    runner.clear_cache();
    runner.evaluate_point(p);
    EXPECT_EQ(calls.load(), 2u);
}

TEST(BatchRunner, ExceptionPropagatesFromWorkers) {
    for (std::size_t threads : {1u, 4u}) {
        RunnerOptions o;
        o.threads = threads;  // 4 threads: one point per batch
        std::atomic<std::size_t> calls{0};
        const Simulation failing = [&calls](const Vector& nat) -> std::map<std::string, double> {
            calls.fetch_add(1);
            if (nat[0] > 7.0) throw std::invalid_argument("diverged");
            return {{"f", nat[0]}};
        };
        BatchRunner runner(failing, o);
        const Design d = full_factorial(2, 4);  // natural x spans 0..10
        EXPECT_THROW(runner.run_design(kSpace, d), std::invalid_argument) << threads;
        // A failed run commits nothing to the cache.
        EXPECT_EQ(runner.cache_size(), 0u);
    }
}

TEST(BatchRunner, DesignFlowSharesOneCacheAcrossPhases) {
    // The flow-level promise: CCD centre replicates, validation re-visits
    // and the optimizer confirmation all draw on one memoization cache.
    std::atomic<std::size_t> calls{0};
    const Simulation sim = [&calls](const Vector& nat) {
        calls.fetch_add(1);
        const double x = nat[0], y = nat[1];
        return std::map<std::string, double>{
            {"perf", 10.0 - (x - 6.0) * (x - 6.0) / 4.0 - (y - 2.0) * (y - 2.0)}};
    };
    ehdoe::core::DesignFlow flow(
        DesignSpace({{"x", 0.0, 10.0, false}, {"y", 0.0, 4.0, false}}), sim, {});
    const auto& res = flow.run_ccd();
    EXPECT_EQ(res.design.runs(), 12u);      // 4 factorial + 4 axial + 4 centre
    EXPECT_EQ(res.simulations, 9u);         // centre simulated once
    EXPECT_EQ(res.cache_hits, 3u);
    EXPECT_EQ(flow.simulator_calls(), 9u);
    EXPECT_EQ(flow.cache_size(), 9u);

    const std::size_t before = calls.load();
    flow.optimize("perf", true, {}, true);  // confirmation simulates <= 1 new point
    EXPECT_LE(calls.load(), before + 1);
    EXPECT_EQ(flow.batch_stats().simulations, calls.load());
}
