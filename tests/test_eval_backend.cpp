// Evaluation-backend layer tests: cross-backend bitwise equivalence on the
// S1 CCD and persistent-cache round-trip/invalidation/corruption recovery.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

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

}  // namespace

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
