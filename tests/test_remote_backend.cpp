// Distributed evaluation service tests: RemoteBackend sharding over
// loopback EvalServer instances — bitwise equivalence with in-process
// evaluation (1 and 2 shards), a clean batch as one round of frames on the
// calling thread, mid-batch shard death with re-dispatch,
// handshake rejection (protocol version / fingerprint),
// remote simulation errors in design order, the persistent cache as the
// shared result store above the remote layer, and the server's serving
// contracts: stats answered mid-evaluation, `workers` bounding evaluations
// across connections, and concurrent clients sharing shards.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/persistent_cache.hpp"
#include "core/scenario.hpp"
#include "core/toolkit.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "doe/factorial.hpp"
#include "net/eval_server.hpp"
#include "net/remote_backend.hpp"
#include "net/wire.hpp"
#include "net_test_utils.hpp"

using namespace ehdoe;
using namespace ehdoe::doe;
using namespace ehdoe::net_test;
using ehdoe::num::Vector;

namespace {

const DesignSpace kSpace({{"x", 0.0, 10.0, false}, {"y", -5.0, 5.0, false}});

/// Deliberately irrational arithmetic: bitwise comparisons below catch any
/// reordering of floating-point work across shards.
std::map<std::string, double> transcendental(const Vector& nat) {
    const double x = nat[0], y = nat[1];
    return {
        {"f", std::sin(x) * std::exp(0.3 * y) + std::sqrt(x + 1.0)},
        {"g", std::cos(x * y) / (1.0 + x * x)},
    };
}

Simulation transcendental_sim() {
    return [](const Vector& nat) { return transcendental(nat); };
}

/// Threads of this process right now.
std::size_t thread_count() {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        ++n;
    }
    return n;
}

/// Same values, but slow enough that a batch is still in flight when a
/// test kills a shard.
Simulation slow_sim() {
    return [](const Vector& nat) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        return transcendental(nat);
    };
}

}  // namespace

// ---------------------------------------------------------------------------
// Equivalence: the S1 CCD through 1 and 2 loopback shards is bitwise
// identical to InProcessBackend (the acceptance criterion).
// ---------------------------------------------------------------------------
TEST(RemoteBackend, S1CcdBitwiseIdenticalAcrossShardCounts) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const DesignSpace space = sc.design_space();
    const Design ccd = doe::central_composite(space.dimension());
    const std::string fp = sc.fingerprint();

    const RunResults base =
        BatchRunner(sc.make_simulation(), RunnerOptions{}).run_design(space, ccd);
    EXPECT_EQ(base.simulations, 45u);

    auto s1 = start_server(sc.make_simulation(), fp);
    auto s2 = start_server(sc.make_simulation(), fp);
    {
        BatchRunner remote(sc.make_simulation(), remote_options({endpoint_of(*s1)}, fp));
        EXPECT_EQ(remote.backend().name(), "remote(1 shards)");
        const RunResults r = remote.run_design(space, ccd);
        EXPECT_EQ(r.response_names, base.response_names);
        EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0));
        EXPECT_EQ(r.simulations, 45u);
        EXPECT_EQ(r.cache_hits, 3u);  // the centre replicates, memoized client-side
    }
    EXPECT_EQ(s1->points_served(), 45u);
    {
        BatchRunner remote(sc.make_simulation(),
                           remote_options({endpoint_of(*s1), endpoint_of(*s2)}, fp));
        const RunResults r = remote.run_design(space, ccd);
        EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0));
        EXPECT_EQ(r.simulations, 45u);
        EXPECT_EQ(remote.threads(), 2u);  // concurrency = live shards
    }
    // The second run sharded across both servers.
    EXPECT_EQ(s1->points_served() + s2->points_served(), 90u);
    EXPECT_GT(s2->points_served(), 0u);
}

// ---------------------------------------------------------------------------
// Rounds: a clean batch writes one frame per shard, and the client waits
// for the results on the calling thread — the process runs no extra thread
// while the shards compute.
// ---------------------------------------------------------------------------
TEST(RemoteBackend, CleanBatchIsOneRoundOnTheCallingThread) {
    const std::string fp = "sim-rounds";
    std::mutex mu;
    std::size_t most_threads = 0;
    const Simulation counting = [&](const Vector& nat) {
        const std::size_t now = thread_count();
        {
            std::lock_guard<std::mutex> lock(mu);
            most_threads = std::max(most_threads, now);
        }
        return transcendental(nat);
    };
    auto s1 = start_server(counting, fp, 1);
    auto s2 = start_server(counting, fp, 1);
    auto s3 = start_server(counting, fp, 1);

    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*s1)), net::parse_endpoint(endpoint_of(*s2)),
                    net::parse_endpoint(endpoint_of(*s3))};
    ro.fingerprint = fp;
    net::RemoteBackend backend(ro);

    std::vector<Vector> points;
    for (int i = 0; i < 25; ++i) points.push_back({0.4 * i, 0.3 * i - 5.0});
    const std::size_t frames_before = backend.batches();
    const std::size_t threads_before = thread_count();
    const std::vector<core::ResponseMap> out = backend.evaluate(points);

    EXPECT_EQ(backend.batches() - frames_before, 3u);
    EXPECT_EQ(most_threads, threads_before);
    ASSERT_EQ(out.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(out[i], transcendental(points[i])) << "point " << i;
    }
    EXPECT_EQ(s1->points_served() + s2->points_served() + s3->points_served(), 25u);
}

// ---------------------------------------------------------------------------
// Failover: killing one shard mid-batch re-dispatches its points and the
// batch completes with identical results.
// ---------------------------------------------------------------------------
TEST(RemoteBackend, ShardDeathMidBatchStillCompletesIdentically) {
    const std::string fp = "sim-slow";
    auto s1 = start_server(slow_sim(), fp);
    auto s2 = start_server(slow_sim(), fp);

    const Design d = full_factorial(2, 9);  // 81 distinct points
    const RunResults base = BatchRunner(transcendental_sim()).run_design(kSpace, d);

    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*s1)), net::parse_endpoint(endpoint_of(*s2))};
    ro.fingerprint = fp;
    auto backend = std::make_shared<net::RemoteBackend>(ro);
    BatchRunner runner(backend);

    // Shoot the second shard once it has actually served work.
    std::thread killer([&] {
        while (s2->points_served() < 3) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        s2->stop();
    });
    const RunResults r = runner.run_design(kSpace, d);
    killer.join();

    EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0));
    // The dead shard stays dead: its server is gone, so re-dials keep failing.
    EXPECT_EQ(backend->live_endpoints(), 1u);
    EXPECT_EQ(r.simulations, 81u);  // every point resolved exactly once
    // Two frames in the first round, then one failover frame carrying the
    // dead shard's points to the survivor.
    EXPECT_EQ(backend->batches(), 3u);

    // The surviving shard keeps serving subsequent batches alone.
    num::Matrix one(1, 2);
    const RunResults again = runner.run_points(kSpace, one);
    EXPECT_EQ(again.cache_hits + again.simulations, 1u);
}

TEST(RemoteBackend, AllShardsDeadSurfacesClearErrorsInDesignOrder) {
    const std::string fp = "sim-slow";
    auto s1 = start_server(slow_sim(), fp);

    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*s1))};
    ro.fingerprint = fp;
    auto backend = std::make_shared<net::RemoteBackend>(ro);
    BatchRunner runner(backend);

    std::thread killer([&] {
        while (s1->points_served() < 2) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        s1->stop();
    });
    try {
        runner.run_design(kSpace, full_factorial(2, 9));
        killer.join();
        FAIL() << "expected a no-live-endpoints error";
    } catch (const std::runtime_error& e) {
        killer.join();
        EXPECT_NE(std::string(e.what()).find("no live endpoints remain"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(backend->live_endpoints(), 0u);
    EXPECT_THROW(runner.run_points(kSpace, num::Matrix(1, 2)), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Handshake: mismatched peers are rejected with a message, not served.
// ---------------------------------------------------------------------------
TEST(RemoteBackend, FingerprintMismatchIsACleanHandshakeError) {
    auto server = start_server(transcendental_sim(), "sim-A");
    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*server))};
    ro.fingerprint = "sim-B";
    try {
        net::RemoteBackend backend(ro);
        FAIL() << "expected a handshake rejection";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("sim-A"), std::string::npos) << e.what();
    }
    EXPECT_EQ(server->handshakes_rejected(), 1u);
}

TEST(RemoteBackend, ProtocolVersionMismatchIsRejected) {
    auto server = start_server(transcendental_sim(), "sim-A");

    // A raw wire-level client from the future.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

    net::Hello hello;
    hello.version = net::kProtocolVersion + 7;
    hello.fingerprint = "sim-A";
    ASSERT_TRUE(net::write_hello(fd, hello));
    std::uint64_t status = net::kStatusOk;
    std::string message;
    ASSERT_TRUE(net::read_welcome(fd, status, message));
    EXPECT_EQ(status, net::kStatusError);
    EXPECT_NE(message.find("protocol version mismatch"), std::string::npos) << message;
    ::close(fd);
}

// ---------------------------------------------------------------------------
// Error semantics: a simulation that throws on the server surfaces as a
// runtime_error in design order, with the server's message.
// ---------------------------------------------------------------------------
TEST(RemoteBackend, RemoteSimulationErrorArrivesInDesignOrder) {
    const Simulation failing = [](const Vector& nat) -> std::map<std::string, double> {
        if (nat[0] > 7.0) throw std::invalid_argument("diverged hard");
        return {{"f", nat[0]}};
    };
    auto server = start_server(failing, "sim-err");
    BatchRunner runner(transcendental_sim(),
                       remote_options({endpoint_of(*server)}, "sim-err"));
    try {
        runner.run_design(kSpace, full_factorial(2, 4));  // natural x spans 0..10
        FAIL() << "expected a propagated simulation error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("diverged hard"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("simulation failed at point"), std::string::npos)
            << e.what();
    }
    // A failed run commits nothing, and the server survives the error.
    EXPECT_EQ(runner.cache_size(), 0u);
    EXPECT_GE(server->points_failed(), 1u);
    const RunResults ok = runner.run_points(kSpace, num::Matrix(1, 2));
    EXPECT_EQ(ok.simulations, 1u);
}

// ---------------------------------------------------------------------------
// Persistent cache over the remote layer: the snapshot file is the shared
// result store — a warm run asks the servers for nothing.
// ---------------------------------------------------------------------------
TEST(RemoteBackend, WarmPersistentCacheOverRemoteReportsZeroSimulations) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const DesignSpace space = sc.design_space();
    const Design ccd = doe::central_composite(space.dimension());
    const std::string fp = sc.fingerprint();
    TempFile cache("ehdoe-remote-warm");

    auto server = start_server(sc.make_simulation(), fp);
    RunnerOptions o = remote_options({endpoint_of(*server)}, fp);
    o.cache_file = cache.path();

    doe::RunResults base;
    {
        BatchRunner cold(sc.make_simulation(), o);
        auto* layer = dynamic_cast<const core::PersistentCache*>(&cold.backend());
        ASSERT_NE(layer, nullptr);  // the cache decorates the remote backend
        base = cold.run_design(space, ccd);
        EXPECT_EQ(base.simulations, 45u);
        EXPECT_TRUE(cold.save_cache());
    }
    EXPECT_EQ(server->points_served(), 45u);
    {
        BatchRunner warm(sc.make_simulation(), o);
        const RunResults r = warm.run_design(space, ccd);
        EXPECT_EQ(r.simulations, 0u);
        EXPECT_EQ(r.cache_hits, ccd.runs());
        EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0));
    }
    EXPECT_EQ(server->points_served(), 45u);  // the warm run never called home
}

// ---------------------------------------------------------------------------
// DesignFlow wiring: Options::endpoints shards the whole flow.
// ---------------------------------------------------------------------------
TEST(RemoteBackend, DesignFlowRunsItsWholeLoopOverShards) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const std::string fp = sc.fingerprint();
    auto s1 = start_server(sc.make_simulation(), fp);
    auto s2 = start_server(sc.make_simulation(), fp);

    core::DesignFlow local(sc.design_space(), sc.make_simulation());
    local.run_ccd();

    core::DesignFlow::Options o;
    o.endpoints = {endpoint_of(*s1), endpoint_of(*s2)};
    o.cache_fingerprint = fp;
    core::DesignFlow flow(sc.design_space(), sc.make_simulation(), o);
    flow.run_ccd();
    EXPECT_EQ(flow.batch_stats().simulations, 45u);
    EXPECT_DOUBLE_EQ(flow.surface(core::kRespPackets).value(num::Vector(6)),
                     local.surface(core::kRespPackets).value(num::Vector(6)));
}

// ---------------------------------------------------------------------------
// Serving contracts: the stats path never waits on evaluation, `workers`
// bounds evaluations across every connection, and concurrent clients share
// shards without losing points or connections.
// ---------------------------------------------------------------------------
TEST(EvalServer, StatsQueryIsAnsweredWhileAFrameIsMidEvaluation) {
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
    const Simulation latched = [&](const Vector& nat) {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return released; });
        return transcendental(nat);
    };
    auto server = start_server(latched, "sim-latch", 1);

    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*server))};
    ro.fingerprint = "sim-latch";
    net::RemoteBackend backend(ro);
    const std::vector<Vector> points = {{1.0, 2.0}, {3.0, -1.0}, {7.5, 4.0}};
    std::vector<core::ResponseMap> out;
    std::thread client([&] { out = backend.evaluate(points); });

    bool mid_evaluation = false;
    {
        std::unique_lock<std::mutex> lock(mu);
        mid_evaluation = cv.wait_for(lock, std::chrono::seconds(10), [&] { return entered; });
    }
    net::ShardStats stats;
    std::string error;
    const bool answered =
        net::query_shard_stats(net::parse_endpoint(endpoint_of(*server)), stats, error);
    {
        std::lock_guard<std::mutex> lock(mu);
        released = true;
    }
    cv.notify_all();
    client.join();

    EXPECT_TRUE(mid_evaluation);
    ASSERT_TRUE(answered) << error;
    EXPECT_GE(stats.in_flight, 1u);
    EXPECT_EQ(stats.points_served, 0u);
    ASSERT_EQ(out.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(out[i], transcendental(points[i])) << "point " << i;
    }
    EXPECT_EQ(server->points_served(), points.size());
}

TEST(EvalServer, StopEvaluatesNoPointOfAFrameThatHadNotStarted) {
    // stop() shuts the frame's socket down, so a point that had not started
    // would be evaluated for nobody (in exec mode, a simulator launch each).
    const Simulation slow = [](const Vector& nat) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return transcendental(nat);
    };
    auto server = start_server(slow, "sim-slow", 1);

    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*server))};
    ro.fingerprint = "sim-slow";
    net::RemoteBackend backend(ro);
    std::vector<Vector> points;
    for (int i = 0; i < 50; ++i) points.push_back({0.1 * i, 1.0});
    std::string error;
    std::thread client([&] {
        try {
            backend.evaluate(points);
        } catch (const std::runtime_error& e) {
            error = e.what();
        }
    });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server->points_in_flight() < 1 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(server->points_in_flight(), 1u);
    server->stop();
    client.join();

    EXPECT_LE(server->points_served(), 2u);
    EXPECT_EQ(server->points_failed(), 0u);
    EXPECT_NE(error.find("died and no live endpoints remain"), std::string::npos)
        << "the client's frame must fail as a lost shard: " << error;
}

TEST(EvalServer, OneWorkerShardNeverEvaluatesTwoPointsAtOnce) {
    std::mutex mu;
    int active = 0;
    int most_active = 0;
    const Simulation exclusive = [&](const Vector& nat) {
        {
            std::lock_guard<std::mutex> lock(mu);
            most_active = std::max(most_active, ++active);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        {
            std::lock_guard<std::mutex> lock(mu);
            --active;
        }
        return transcendental(nat);
    };
    auto server = start_server(exclusive, "sim-one", 1);

    // Three connections, each sending 1-point and multi-point frames.
    const std::vector<std::size_t> frame_sizes = {1, 4, 1, 1, 3, 1, 5};
    std::size_t per_client = 0;
    for (const std::size_t k : frame_sizes) per_client += k;
    std::vector<std::size_t> mismatches(3, 0);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
            net::RemoteBackendOptions ro;
            ro.endpoints = {net::parse_endpoint(endpoint_of(*server))};
            ro.fingerprint = "sim-one";
            net::RemoteBackend backend(ro);
            std::size_t i = 0;
            for (const std::size_t k : frame_sizes) {
                std::vector<Vector> points;
                for (std::size_t j = 0; j < k; ++j, ++i) {
                    points.push_back({0.1 * static_cast<double>(i), 1.5 * static_cast<double>(c)});
                }
                const std::vector<core::ResponseMap> out = backend.evaluate(points);
                for (std::size_t j = 0; j < k; ++j) {
                    if (out[j] != transcendental(points[j])) ++mismatches[c];
                }
            }
        });
    }
    for (std::thread& t : clients) t.join();

    EXPECT_EQ(most_active, 1);
    EXPECT_EQ(mismatches, std::vector<std::size_t>(3, 0));
    EXPECT_EQ(server->points_served(), 3 * per_client);
    EXPECT_EQ(server->connections_accepted(), 3u);
}

TEST(RemoteBackend, FourConcurrentClientsOverTwoShardsMatchInProcess) {
    const std::string fp = "sim-four";
    auto s1 = start_server(transcendental_sim(), fp);
    auto s2 = start_server(transcendental_sim(), fp);
    const Design d = full_factorial(2, 5);  // 25 distinct points
    const RunResults base = BatchRunner(transcendental_sim()).run_design(kSpace, d);

    std::vector<RunResults> runs(4);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < runs.size(); ++c) {
        clients.emplace_back([&, c] {
            BatchRunner remote(transcendental_sim(),
                               remote_options({endpoint_of(*s1), endpoint_of(*s2)}, fp));
            runs[c] = remote.run_design(kSpace, d);
        });
    }
    for (std::thread& t : clients) t.join();

    for (const RunResults& r : runs) {
        EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0));
        EXPECT_EQ(r.simulations, 25u);
    }
    // One connection per client per shard, and every point served once.
    EXPECT_EQ(s1->connections_accepted(), 4u);
    EXPECT_EQ(s2->connections_accepted(), 4u);
    EXPECT_EQ(s1->points_served() + s2->points_served(), 4u * 25u);
    EXPECT_GT(s1->points_served(), 0u);
    EXPECT_GT(s2->points_served(), 0u);
}

// ---------------------------------------------------------------------------
// External servers (CI smoke): when EHDOE_TEST_ENDPOINTS names running
// ehdoe-eval-server processes (S1, --duration 30), verify the
// equivalence contract against them. Skipped otherwise.
// ---------------------------------------------------------------------------
TEST(ExternalServers, MatchesInProcessBitwise) {
    const char* env = std::getenv("EHDOE_TEST_ENDPOINTS");
    if (!env || !*env) {
        GTEST_SKIP() << "EHDOE_TEST_ENDPOINTS not set";
    }
    std::vector<std::string> endpoints;
    std::stringstream ss(env);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) endpoints.push_back(item);
    }
    ASSERT_FALSE(endpoints.empty());

    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const DesignSpace space = sc.design_space();
    const Design ccd = doe::central_composite(space.dimension());

    const RunResults base =
        BatchRunner(sc.make_simulation(), RunnerOptions{}).run_design(space, ccd);
    BatchRunner remote(sc.make_simulation(), remote_options(endpoints, sc.fingerprint()));
    const RunResults r = remote.run_design(space, ccd);
    EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0));
    EXPECT_EQ(r.simulations, 45u);
    EXPECT_EQ(remote.threads(), endpoints.size());
}
