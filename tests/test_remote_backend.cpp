// Distributed evaluation service tests: RemoteBackend sharding over
// loopback EvalServer instances — bitwise equivalence with in-process
// evaluation (1 and 2 shards), mid-batch shard death with re-dispatch,
// handshake rejection (protocol version / fingerprint / replicates),
// remote simulation errors in design order, and the persistent cache as
// the shared result store above the remote layer.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
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

TEST(RemoteBackend, ReplicatesMismatchIsACleanHandshakeError) {
    auto server = start_server(transcendental_sim(), "sim-A", 2, 1);
    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*server))};
    ro.fingerprint = "sim-A";
    ro.replicates = 3;
    try {
        net::RemoteBackend backend(ro);
        FAIL() << "expected a handshake rejection";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("replicates mismatch"), std::string::npos)
            << e.what();
    }
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
// External servers (CI smoke): when EHDOE_TEST_ENDPOINTS names running
// ehdoe-eval-server processes (S1, --duration 30, replicates 1), verify the
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
