// Evaluation-backend layer tests: cross-backend bitwise equivalence on the
// S1 CCD and persistent-cache round-trip/invalidation/corruption recovery.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/eval_backend.hpp"
#include "core/inprocess_backend.hpp"
#include "core/persistent_cache.hpp"
#include "core/scenario.hpp"
#include "core/toolkit.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "doe/factorial.hpp"

using namespace ehdoe;
using namespace ehdoe::doe;
using ehdoe::num::Vector;

namespace {

const DesignSpace kSpace({{"x", 0.0, 10.0, false}, {"y", -5.0, 5.0, false}});

Simulation transcendental_sim() {
    // Deliberately irrational arithmetic: bitwise comparisons below would
    // catch any reordering of floating-point work across backends.
    return [](const Vector& nat) {
        const double x = nat[0], y = nat[1];
        return std::map<std::string, double>{
            {"f", std::sin(x) * std::exp(0.3 * y) + std::sqrt(x + 1.0)},
            {"g", std::cos(x * y) / (1.0 + x * x)},
        };
    };
}

/// A scratch file path that dies with the test.
class TempFile {
public:
    explicit TempFile(const std::string& stem) {
        path_ = (std::filesystem::temp_directory_path() /
                 (stem + "-" + std::to_string(::getpid()) + ".ehcache"))
                    .string();
        std::remove(path_.c_str());
    }
    ~TempFile() {
        std::remove(path_.c_str());
        std::remove((path_ + ".tmp").c_str());
        std::remove((path_ + ".lock").c_str());
    }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

RunnerOptions with_threads(std::size_t workers) {
    RunnerOptions o;
    o.threads = workers;
    return o;
}

/// Guards the call sizes batched_identity() records from pool workers.
std::mutex calls_mutex;

/// A width-4 batched model of f = x: point x = 2 throws invalid_argument,
/// x = 5 throws domain_error, and every call's size is recorded.
core::Simulation batched_identity(std::vector<std::size_t>* calls) {
    return core::Simulation::batched(
        4, [calls](const Vector* points, std::size_t n, core::PointOutcome* out) {
            if (calls) {
                const std::lock_guard<std::mutex> lock(calls_mutex);
                calls->push_back(n);
            }
            for (std::size_t i = 0; i < n; ++i) {
                const double x = points[i][0];
                if (x == 2.0) {
                    out[i].error = std::make_exception_ptr(std::invalid_argument("two"));
                } else if (x == 5.0) {
                    out[i].error = std::make_exception_ptr(std::domain_error("five"));
                } else {
                    out[i].responses = {{"f", x}, {"z", -0.0}};
                }
            }
        });
}

std::vector<Vector> line_points(std::size_t n) {
    std::vector<Vector> points;
    for (std::size_t i = 0; i < n; ++i) points.push_back(Vector{static_cast<double>(i), 0.0});
    return points;
}

}  // namespace

// ---------------------------------------------------------------------------
// core::Simulation: batched models and per-point callables
// ---------------------------------------------------------------------------

TEST(SimulationModel, PerPointLambdaConvertsAtWidthOneAndKeepsEachPointsException) {
    const core::Simulation sim = [](const Vector& x) -> core::ResponseMap {
        if (x[0] == 1.0) throw std::invalid_argument("one");
        if (x[0] == 3.0) throw std::out_of_range("three");
        return {{"f", 2.0 * x[0]}};
    };
    ASSERT_TRUE(sim);
    EXPECT_EQ(sim.width(), 1u);
    const std::vector<Vector> points = line_points(5);
    std::vector<core::PointOutcome> out(points.size());
    sim.evaluate(points.data(), points.size(), out.data());
    EXPECT_THROW(std::rethrow_exception(out[1].error), std::invalid_argument);
    EXPECT_THROW(std::rethrow_exception(out[3].error), std::out_of_range);
    for (std::size_t i : {0u, 2u, 4u}) {
        EXPECT_FALSE(out[i].error);
        EXPECT_EQ(out[i].responses.at("f"), 2.0 * static_cast<double>(i));
    }
    // One point at a time: the responses, or the point's own exception.
    EXPECT_EQ(sim(points[4]).at("f"), 8.0);
    EXPECT_THROW(sim(points[3]), std::out_of_range);
}

TEST(SimulationModel, NullAndEmptyFunctionGiveAnEmptySimulation) {
    EXPECT_FALSE(core::Simulation());
    EXPECT_FALSE(core::Simulation(nullptr));
    EXPECT_FALSE(core::Simulation(std::function<core::ResponseMap(const Vector&)>()));
    core::ResponseMap (*no_function)(const Vector&) = nullptr;
    EXPECT_FALSE(core::Simulation(no_function));
    EXPECT_THROW(core::InProcessBackend(nullptr, core::BackendOptions{}),
                 std::invalid_argument);
    EXPECT_THROW(core::Simulation::batched(0, [](const Vector*, std::size_t,
                                                 core::PointOutcome*) {}),
                 std::invalid_argument);
}

TEST(SimulationModel, InProcessHandsEachBatchToTheModelInOneCall) {
    std::vector<std::size_t> calls;
    core::InProcessBackend serial(batched_identity(&calls), core::BackendOptions{});
    const auto no_failing_point = [](std::size_t n) {
        std::vector<Vector> points = line_points(n);
        for (Vector& x : points) {
            if (x[0] == 2.0 || x[0] == 5.0) x[0] += 10.0;
        }
        return points;
    };
    const std::vector<Vector> points = no_failing_point(9);
    const std::vector<core::ResponseMap> out = serial.evaluate(points);
    // About four batches per worker, each of at least the model's width
    // unless a worker would idle: 9 points on one worker make 4, 4 and 1.
    EXPECT_EQ(calls, (std::vector<std::size_t>{4, 4, 1}));
    EXPECT_EQ(serial.simulations(), 9u);
    EXPECT_EQ(serial.batches(), 3u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(out[i].at("f"), points[i][0]);
        // Settled as simulate_replicated settles one run: -0.0 reads +0.0.
        EXPECT_FALSE(std::signbit(out[i].at("z")));
    }

    // On 4 workers a 45-point CCD would make 15 batches of 3, each leaving
    // one of the model's 4 lanes idle.
    calls.clear();
    core::BackendOptions four;
    four.threads = 4;
    core::InProcessBackend pooled(batched_identity(&calls), four);
    EXPECT_EQ(pooled.evaluate(no_failing_point(45)).size(), 45u);
    std::sort(calls.begin(), calls.end());
    EXPECT_EQ(calls, (std::vector<std::size_t>{1, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}));
    EXPECT_EQ(pooled.simulations(), 45u);
    EXPECT_EQ(pooled.batches(), 12u);

    // A small batch still spreads over every worker: 4 points run as four
    // calls of 1, and 8 as four calls of 2.
    for (const std::size_t n : {4u, 8u}) {
        calls.clear();
        EXPECT_EQ(pooled.evaluate(no_failing_point(n)).size(), n);
        EXPECT_EQ(calls, std::vector<std::size_t>(4, n / 4));
    }
    EXPECT_EQ(pooled.batches(), 20u);
}

TEST(SimulationModel, InProcessRethrowsTheFirstFailingPointWithItsType) {
    for (std::size_t threads : {1u, 3u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        core::BackendOptions bo;
        bo.threads = threads;
        core::InProcessBackend backend(batched_identity(nullptr), bo);
        EXPECT_THROW(backend.evaluate(line_points(8)), std::invalid_argument);
        if (threads == 1) {
            // Batches {0, 1, 2, 3} and {4, 5, 6, 7}: the failing batch ran
            // whole, so 0, 1 and 3 count as simulations, and the batch after
            // it never starts.
            EXPECT_EQ(backend.simulations(), 3u);
        }
        // The runner commits nothing from a failed batch.
        BatchRunner runner(batched_identity(nullptr), with_threads(threads));
        EXPECT_THROW(runner.evaluate(line_points(8)), std::invalid_argument);
        EXPECT_EQ(runner.cache_size(), 0u);
    }
}

TEST(SimulationModel, ABatchCallThatThrowsFailsEveryPointItLeftUnanswered) {
    // The call answers point 0, fails point 1 itself, then throws: points 2
    // and 3 carry the call's exception, with its type.
    const core::Simulation sim = core::Simulation::batched(
        4, [](const Vector* points, std::size_t n, core::PointOutcome* out) {
            if (points[0][0] != 0.0) throw std::length_error("the call failed");
            out[0].responses = {{"f", 0.0}};
            if (n > 1) out[1].error = std::make_exception_ptr(std::invalid_argument("one"));
            throw std::length_error("the call failed");
        });
    const std::vector<Vector> points = line_points(4);
    std::vector<core::PointOutcome> out(points.size());
    core::simulate_batch(sim, points.data(), points.size(), out.data());
    EXPECT_FALSE(out[0].error);
    EXPECT_EQ(out[0].responses.at("f"), 0.0);
    EXPECT_THROW(std::rethrow_exception(out[1].error), std::invalid_argument);
    EXPECT_THROW(std::rethrow_exception(out[2].error), std::length_error);
    EXPECT_THROW(std::rethrow_exception(out[3].error), std::length_error);
    EXPECT_THROW(sim(points[1]), std::length_error);
    EXPECT_THROW(core::simulate_replicated(sim, points[2], 1), std::length_error);

    // In process, the first failing point in input order is rethrown: 8
    // points make batches of 4, and the first batch fails at point 1.
    core::InProcessBackend backend(sim, core::BackendOptions{});
    EXPECT_THROW(backend.evaluate(line_points(8)), std::invalid_argument);
    EXPECT_THROW(backend.evaluate({points[3]}), std::length_error);
}

TEST(SimulationModel, ReplicatedSettlesOneRunAsTheBatchDoes) {
    const std::vector<Vector> points = line_points(6);
    const core::Simulation sim = batched_identity(nullptr);
    std::vector<core::PointOutcome> out(points.size());
    core::simulate_batch(sim, points.data(), points.size(), out.data());
    for (std::size_t i : {0u, 1u, 3u, 4u}) {
        const core::ResponseMap one = core::simulate_replicated(sim, points[i], 1);
        EXPECT_EQ(one, out[i].responses);
        EXPECT_FALSE(std::signbit(one.at("z")));
    }
    EXPECT_THROW(core::simulate_replicated(sim, points[2], 1), std::invalid_argument);
    EXPECT_THROW(core::simulate_replicated(sim, points[5], 1), std::domain_error);
    const core::Simulation empty = [](const Vector&) { return core::ResponseMap{}; };
    EXPECT_THROW(core::simulate_replicated(empty, points[0], 1), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Cross-backend equivalence on the real scenario (the acceptance criterion):
// the S1 CCD's responses are bitwise identical across InProcess (1 and N
// threads) and a cold+warm persistent cache — and the warm run is
// simulation-free.
// ---------------------------------------------------------------------------
TEST(EvalBackendEquivalence, S1CcdBitwiseIdenticalAcrossBackends) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const DesignSpace space = sc.design_space();
    const Design ccd = doe::central_composite(space.dimension());
    TempFile cache("ehdoe-equiv");

    const RunResults base =
        BatchRunner(sc.make_simulation(), with_threads(1)).run_design(space, ccd);
    EXPECT_EQ(base.design.runs(), 48u);
    EXPECT_EQ(base.simulations, 45u);  // 4 centre replicates, 3 from the cache
    EXPECT_EQ(base.cache_hits, 3u);

    {
        const RunResults threaded =
            BatchRunner(sc.make_simulation(), with_threads(4)).run_design(space, ccd);
        EXPECT_EQ(threaded.response_names, base.response_names);
        EXPECT_TRUE(num::approx_equal(threaded.responses, base.responses, 0.0));
    }
    {
        // Cold persistent run populates the snapshot on destruction...
        RunnerOptions o = with_threads(2);
        o.cache_file = cache.path();
        o.cache_fingerprint = sc.fingerprint();
        const RunResults cold =
            BatchRunner(sc.make_simulation(), o).run_design(space, ccd);
        EXPECT_TRUE(num::approx_equal(cold.responses, base.responses, 0.0));
        EXPECT_EQ(cold.simulations, 45u);
    }
    {
        // ...and the warm run (a fresh runner: a new process in real use)
        // serves the whole design without a single simulation.
        RunnerOptions o = with_threads(2);
        o.cache_file = cache.path();
        o.cache_fingerprint = sc.fingerprint();
        BatchRunner warm(sc.make_simulation(), o);
        const RunResults r = warm.run_design(space, ccd);
        EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0));
        EXPECT_EQ(r.simulations, 0u);
        EXPECT_EQ(r.cache_hits, ccd.runs());
    }
}

// ---------------------------------------------------------------------------
// Persistent cache
// ---------------------------------------------------------------------------
TEST(PersistentCache, RoundTripAcrossBackendInstances) {
    TempFile cache("ehdoe-roundtrip");
    const Design d = full_factorial(2, 3);  // 9 points
    RunnerOptions o;
    o.cache_file = cache.path();
    o.cache_fingerprint = "sim-A";

    const RunResults cold = BatchRunner(transcendental_sim(), o).run_design(kSpace, d);
    EXPECT_EQ(cold.simulations, 9u);

    BatchRunner warm(transcendental_sim(), o);
    auto* layer = dynamic_cast<const core::PersistentCache*>(&warm.backend());
    ASSERT_NE(layer, nullptr);
    EXPECT_TRUE(layer->restored());
    EXPECT_EQ(layer->size(), 9u);
    const RunResults again = warm.run_design(kSpace, d);
    EXPECT_EQ(again.simulations, 0u);
    EXPECT_EQ(again.cache_hits, 9u);
    EXPECT_TRUE(num::approx_equal(again.responses, cold.responses, 0.0));
}

TEST(PersistentCache, FingerprintMismatchInvalidates) {
    TempFile cache("ehdoe-fingerprint");
    const Design d = full_factorial(2, 3);
    RunnerOptions o;
    o.cache_file = cache.path();
    o.cache_fingerprint = "sim-A";
    BatchRunner(transcendental_sim(), o).run_design(kSpace, d);

    // Same file, different simulation identity: the snapshot must not leak.
    o.cache_fingerprint = "sim-B";
    BatchRunner mismatched(transcendental_sim(), o);
    auto* layer = dynamic_cast<const core::PersistentCache*>(&mismatched.backend());
    ASSERT_NE(layer, nullptr);
    EXPECT_FALSE(layer->restored());
    const RunResults r = mismatched.run_design(kSpace, d);
    EXPECT_EQ(r.simulations, 9u);
}

TEST(PersistentCache, CorruptFileRecoversCold) {
    TempFile cache("ehdoe-corrupt");
    const Design d = full_factorial(2, 3);
    RunnerOptions o;
    o.cache_file = cache.path();
    o.cache_fingerprint = "sim-A";
    BatchRunner(transcendental_sim(), o).run_design(kSpace, d);

    // Truncate the snapshot mid-entry: load must treat it as cold, not die.
    {
        std::ifstream in(cache.path(), std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        ASSERT_GT(bytes.size(), 40u);
        std::ofstream out(cache.path(), std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    }
    BatchRunner recovered(transcendental_sim(), o);
    auto* layer = dynamic_cast<const core::PersistentCache*>(&recovered.backend());
    ASSERT_NE(layer, nullptr);
    EXPECT_FALSE(layer->restored());
    const RunResults r = recovered.run_design(kSpace, d);
    EXPECT_EQ(r.simulations, 9u);

    // Garbage that is not even a header recovers the same way.
    {
        std::ofstream out(cache.path(), std::ios::binary | std::ios::trunc);
        out << "not a cache file at all";
    }
    BatchRunner garbage(transcendental_sim(), o);
    const RunResults g = garbage.run_design(kSpace, d);
    EXPECT_EQ(g.simulations, 9u);
}

TEST(PersistentCache, ThrowingInnerCommitsNothing) {
    TempFile cache("ehdoe-throwing");
    const Simulation bad = [](const Vector&) -> std::map<std::string, double> {
        throw std::runtime_error("boom");
    };
    RunnerOptions o;
    o.cache_file = cache.path();
    o.cache_fingerprint = "sim-A";
    {
        BatchRunner runner(bad, o);
        num::Matrix pts(2, 2);
        pts(1, 0) = 0.5;
        EXPECT_THROW(runner.run_points(kSpace, pts), std::runtime_error);
        EXPECT_TRUE(runner.save_cache());
    }
    BatchRunner warm(bad, o);
    auto* layer = dynamic_cast<const core::PersistentCache*>(&warm.backend());
    ASSERT_NE(layer, nullptr);
    EXPECT_EQ(layer->size(), 0u);
}

TEST(PersistentCache, SaveMergesEntriesAlreadyOnDisk) {
    // Two runners sharing one snapshot file as their result store: the
    // second save must fold in what the first wrote, not clobber it.
    TempFile cache("ehdoe-merge");
    RunnerOptions o;
    o.cache_file = cache.path();
    o.cache_fingerprint = "sim-A";

    BatchRunner a(transcendental_sim(), o);  // both constructed cold:
    BatchRunner b(transcendental_sim(), o);  // neither sees the other's work
    num::Matrix pts_a(2, 2);  // coded (0,0), (1,0) -> natural (5,0), (10,0)
    pts_a(1, 0) = 1.0;
    num::Matrix pts_b(2, 2);  // coded (0,1), (0,-1) -> natural (5,5), (5,-5)
    pts_b(0, 1) = 1.0;
    pts_b(1, 1) = -1.0;
    a.run_points(kSpace, pts_a);
    b.run_points(kSpace, pts_b);
    EXPECT_TRUE(a.save_cache());  // file = A's 2 entries
    EXPECT_TRUE(b.save_cache());  // file = A ∪ B, not just B

    BatchRunner warm(transcendental_sim(), o);
    auto* layer = dynamic_cast<const core::PersistentCache*>(&warm.backend());
    ASSERT_NE(layer, nullptr);
    EXPECT_TRUE(layer->restored());
    EXPECT_EQ(layer->size(), 4u);
    warm.run_points(kSpace, pts_a);
    warm.run_points(kSpace, pts_b);
    EXPECT_EQ(warm.stats().simulations, 0u);
}

TEST(PersistentCache, TwoProcessesSharingOneSnapshotConverge) {
    // A second *process* (a real fork, as in two CLI runs racing) saving to
    // the same cache file: the snapshot ends up holding both processes'
    // entries, and a third run simulates nothing.
    TempFile cache("ehdoe-twoproc");
    RunnerOptions o;
    o.cache_file = cache.path();
    o.cache_fingerprint = "sim-A";

    {
        BatchRunner parent_runner(transcendental_sim(), o);
        parent_runner.run_design(kSpace, full_factorial(2, 2));  // the 4 corners
        ASSERT_TRUE(parent_runner.save_cache());
    }

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child process: warm-load, add the 5 non-corner points of the 3^2
        // grid, save. _exit so gtest state never doubles up.
        BatchRunner child_runner(transcendental_sim(), o);
        child_runner.run_design(kSpace, full_factorial(2, 3));
        ::_exit(child_runner.save_cache() ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    BatchRunner warm(transcendental_sim(), o);
    auto* layer = dynamic_cast<const core::PersistentCache*>(&warm.backend());
    ASSERT_NE(layer, nullptr);
    EXPECT_TRUE(layer->restored());
    EXPECT_EQ(layer->size(), 9u);
    const RunResults r = warm.run_design(kSpace, full_factorial(2, 3));
    EXPECT_EQ(r.simulations, 0u);
}

TEST(PersistentCache, ConcurrentSaversNeverCorruptTheSnapshot) {
    // Two processes hammering save() on one path: the atomic per-process
    // tmp+rename means every load observes a complete snapshot — a reader
    // may see either writer's latest, never a torn file.
    TempFile cache("ehdoe-racing");
    const std::string fp = "sim-A";
    const Simulation plain = [](const Vector& nat) -> std::map<std::string, double> {
        return {{"f", nat[0] + nat[1]}};
    };

    constexpr int kChildren = 2;
    constexpr int kSaves = 20;
    std::vector<pid_t> children;
    for (int c = 0; c < kChildren; ++c) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            core::BackendOptions bo;
            auto inner = std::make_shared<core::InProcessBackend>(plain, bo);
            core::PersistentCache mine(inner, cache.path(), fp, false);
            std::vector<Vector> points;
            for (int i = 0; i < 5; ++i) {
                points.push_back(Vector{static_cast<double>(i), 100.0 * (c + 1)});
            }
            mine.evaluate(points);
            bool ok = true;
            for (int s = 0; s < kSaves; ++s) ok = mine.save() && ok;
            ::_exit(ok ? 0 : 1);
        }
        children.push_back(pid);
    }

    // Probe while the children race: once the file exists it must always
    // parse as a complete compatible snapshot.
    core::BackendOptions bo;
    std::size_t probes_restored = 0;
    for (int probe = 0; probe < 200 && probes_restored < 25; ++probe) {
        struct stat st {};
        if (::stat(cache.path().c_str(), &st) != 0) {
            ::usleep(1000);  // the children have not saved yet
            continue;
        }
        core::PersistentCache reader(std::make_shared<core::InProcessBackend>(plain, bo),
                                     cache.path(), fp, false);
        EXPECT_TRUE(reader.restored()) << "probe " << probe << " saw a torn snapshot";
        probes_restored += reader.restored() ? 1 : 0;
    }

    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        ASSERT_EQ(WEXITSTATUS(status), 0);
    }

    // After the dust settles: the advisory save lock serializes each
    // read-merge-rename cycle, so the racing writers must converge on the
    // exact union of their tables — all 10 entries, not just whichever
    // writer renamed last.
    core::PersistentCache final_reader(
        std::make_shared<core::InProcessBackend>(plain, bo), cache.path(), fp, false);
    EXPECT_TRUE(final_reader.restored());
    EXPECT_EQ(final_reader.size(), 10u)
        << "a racing saver dropped another writer's entries";
    EXPECT_GT(probes_restored, 0u);  // the race was actually observed
}

// ---------------------------------------------------------------------------
// DesignFlow-level wiring
// ---------------------------------------------------------------------------
TEST(DesignFlowBackends, WarmPersistentFlowIsSimulationFree) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    TempFile cache("ehdoe-flow");

    core::DesignFlow::Options o;
    o.runner_threads = 2;
    o.cache_file = cache.path();
    o.cache_fingerprint = sc.fingerprint();

    double cold_prediction = 0.0;
    {
        core::DesignFlow flow(sc.design_space(), sc.make_simulation(), o);
        flow.run_ccd();
        cold_prediction = flow.surface(core::kRespPackets).value(num::Vector(6));
        EXPECT_EQ(flow.batch_stats().simulations, 45u);
    }
    {
        core::DesignFlow flow(sc.design_space(), sc.make_simulation(), o);
        flow.run_ccd();
        EXPECT_EQ(flow.batch_stats().simulations, 0u);
        EXPECT_EQ(flow.batch_stats().cache_hits, 48u);
        EXPECT_DOUBLE_EQ(flow.surface(core::kRespPackets).value(num::Vector(6)),
                         cold_prediction);
    }
}
