// Elastic-farm tests: the fault-injection rig (net_test_utils.hpp) drives
// the three resilience features of the distributed evaluation service —
// shard re-dial (a killed-and-restarted eval-server rejoins a run and
// demonstrably serves points again, proven via the stats frame),
// deterministic throughput-weighted sharding (identical re-runs produce
// identical shard assignments), and the stats wire frame (round-trip and
// version-mismatch rejection). Every failover scenario must stay bitwise
// identical to InProcessBackend — elasticity never buys back determinism.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "doe/batch_runner.hpp"
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

/// Irrational arithmetic so bitwise comparisons catch any reordering of
/// floating-point work across shards (same contract as test_remote_backend).
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

/// Slow enough that a batch is still in flight when a test injects a fault.
Simulation slow_sim() {
    return [](const Vector& nat) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        return transcendental(nat);
    };
}

}  // namespace

// ---------------------------------------------------------------------------
// The acceptance scenario: kill one of two shards mid-optimization, restart
// it, and watch it rejoin — results bitwise identical to InProcessBackend
// throughout, and the restarted shard demonstrably serves points after the
// rejoin (asserted via the stats frame, whose counters restart with the
// server process).
// ---------------------------------------------------------------------------
TEST(FarmElasticity, KilledAndRestartedShardRejoinsAndServesPoints) {
    const std::string fp = "sim-slow";
    auto s1 = start_server(slow_sim(), fp);
    auto s2 = start_server(slow_sim(), fp);
    const std::uint16_t port2 = s2->port();

    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*s1)),
                    net::parse_endpoint(endpoint_of(*s2))};
    ro.fingerprint = fp;
    ro.redial_seconds = 0.0;  // every batch is a re-dial window
    auto backend = std::make_shared<net::RemoteBackend>(ro);
    BatchRunner runner(backend);
    BatchRunner reference(transcendental_sim());

    // Batch 1: shoot shard 2 once it has demonstrably served work; the
    // batch must complete identically off the survivor.
    const Design d1 = full_factorial(2, 9);  // 81 distinct points
    std::thread killer([&] {
        while (s2->points_served() < 3) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        s2->stop();
    });
    const RunResults r1 = runner.run_design(kSpace, d1);
    killer.join();
    EXPECT_TRUE(num::approx_equal(r1.responses,
                                  reference.run_design(kSpace, d1).responses, 0.0));
    EXPECT_EQ(r1.simulations, 81u);
    EXPECT_EQ(backend->live_endpoints(), 1u);

    // Restart the shard on its old port — a new process, fresh counters.
    s2.reset();
    s2 = start_server(slow_sim(), fp, 2, port2);
    EXPECT_EQ(s2->points_served(), 0u);

    // Batch 2: the next evaluate() re-dials, re-handshakes and rejoins. A
    // fresh runner over the same backend, so no memo hit from batch 1 (the
    // four corners both grids share) trims the batch.
    const Design d2 = full_factorial(2, 10);  // 100 fresh points
    const RunResults r2 = BatchRunner(backend).run_design(kSpace, d2);
    EXPECT_EQ(r2.simulations, 100u);
    EXPECT_TRUE(num::approx_equal(r2.responses,
                                  reference.run_design(kSpace, d2).responses, 0.0));
    EXPECT_EQ(backend->live_endpoints(), 2u);
    EXPECT_GE(backend->rejoins(), 1u);
    EXPECT_GE(backend->redials_attempted(), backend->rejoins());

    // A rejoined shard takes its even share at once: batch 2 splits
    // i mod 2 over both shards, whatever each served while the other was
    // down, so neither idles while the other catches up.
    std::size_t rejoined_share = 0;
    for (const std::size_t slot : backend->last_assignment()) {
        rejoined_share += slot == 1 ? 1 : 0;
    }
    EXPECT_EQ(rejoined_share, 50u);

    // The restarted shard served real points after its rejoin — read its
    // counters over the wire, exactly as `ehdoe-farm stats` would.
    net::ShardStats stats;
    std::string error;
    ASSERT_TRUE(net::query_shard_stats(net::parse_endpoint(endpoint_of(*s2)), stats, error))
        << error;
    EXPECT_GT(stats.points_served, 0u);
    EXPECT_EQ(stats.points_failed, 0u);
    EXPECT_EQ(stats.version, net::kProtocolVersion);
}

// ---------------------------------------------------------------------------
// Weighted sharding: the assignment is a pure function of its inputs.
// ---------------------------------------------------------------------------
TEST(FarmElasticity, WeightedAssignmentIsAPureDeterministicFunction) {
    // Uniform weights degenerate to i mod n.
    const std::vector<std::size_t> uniform = net::weighted_assignment(7, {1.0, 1.0, 1.0});
    const std::vector<std::size_t> expected{0, 1, 2, 0, 1, 2, 0};
    EXPECT_EQ(uniform, expected);

    // Skewed weights hand out proportional shares (8 points at 3:1).
    const std::vector<std::size_t> skewed = net::weighted_assignment(8, {3.0, 1.0});
    std::size_t first = 0;
    for (const std::size_t s : skewed) first += s == 0 ? 1 : 0;
    EXPECT_EQ(first, 6u);

    // Pure: the same inputs give the same vector, call after call.
    EXPECT_EQ(net::weighted_assignment(100, {5.0, 2.0, 3.0}),
              net::weighted_assignment(100, {5.0, 2.0, 3.0}));

    EXPECT_THROW(net::weighted_assignment(3, {}), std::invalid_argument);
    EXPECT_THROW(net::weighted_assignment(3, {1.0, 0.0}), std::invalid_argument);
    // Non-finite weights and an overflowing sum would turn the accumulators
    // into inf or NaN and skew the assignment silently.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(net::weighted_assignment(8, {1.0, inf}), std::invalid_argument);
    EXPECT_THROW(net::weighted_assignment(8, {1.0, std::nan("")}), std::invalid_argument);
    EXPECT_THROW(net::weighted_assignment(8, {1e308, 1e308}), std::invalid_argument);
}

TEST(FarmElasticity, TwoIdenticalRunsProduceIdenticalShardAssignments) {
    // Three shards and batch sizes not divisible by three, so the even
    // split has a remainder to place, deterministically.
    const std::string fp = "sim-fast";
    auto s1 = start_server(transcendental_sim(), fp);
    auto s2 = start_server(transcendental_sim(), fp);
    auto s3 = start_server(transcendental_sim(), fp);

    const auto run_and_log = [&] {
        net::RemoteBackendOptions ro;
        ro.endpoints = {net::parse_endpoint(endpoint_of(*s1)),
                        net::parse_endpoint(endpoint_of(*s2)),
                        net::parse_endpoint(endpoint_of(*s3))};
        ro.fingerprint = fp;
        auto backend = std::make_shared<net::RemoteBackend>(ro);
        std::vector<std::vector<std::size_t>> log;
        for (const std::size_t levels : {std::size_t{5}, std::size_t{4}, std::size_t{6}}) {
            // A fresh runner per batch: its memo must not drop the corners
            // the three grids share.
            BatchRunner(backend).run_design(kSpace, full_factorial(2, levels));
            log.push_back(backend->last_assignment());
        }
        return log;
    };

    const auto first = run_and_log();
    const auto second = run_and_log();
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t b = 0; b < first.size(); ++b) {
        EXPECT_EQ(first[b], second[b]) << "assignments diverged at batch " << b;
    }
    // 25 points over 3 shards cannot split evenly: i mod 3 hands the
    // extra point to shard 0.
    std::vector<std::size_t> counts(3, 0);
    for (const std::size_t s : first[0]) ++counts[s];
    EXPECT_EQ(counts[0] + counts[1] + counts[2], 25u);
    EXPECT_EQ(counts[0], 9u);
}

TEST(FarmElasticity, ExplicitWeightsSkewAssignmentTowardFastShards) {
    const std::string fp = "sim-fast";
    auto fast = start_server(transcendental_sim(), fp);
    auto slow = start_server(transcendental_sim(), fp);

    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*fast)),
                    net::parse_endpoint(endpoint_of(*slow))};
    ro.fingerprint = fp;
    ro.shard_weights = {3.0, 1.0};  // operator-measured: 3x the throughput
    auto backend = std::make_shared<net::RemoteBackend>(ro);

    const Design grid = full_factorial(2, 8);  // 64 points
    const RunResults base = BatchRunner(transcendental_sim()).run_design(kSpace, grid);
    const RunResults r = BatchRunner(backend).run_design(kSpace, grid);
    EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0));
    EXPECT_EQ(fast->points_served(), 48u);  // 3/4 of 64, deterministic
    EXPECT_EQ(slow->points_served(), 16u);

    // Weight validation is loud, not silent.
    net::RemoteBackendOptions bad = ro;
    bad.shard_weights = {1.0};
    EXPECT_THROW(net::RemoteBackend{bad}, std::invalid_argument);
    bad.shard_weights = {1.0, -2.0};
    EXPECT_THROW(net::RemoteBackend{bad}, std::invalid_argument);
    bad.shard_weights = {1.0, std::numeric_limits<double>::infinity()};
    EXPECT_THROW(net::RemoteBackend{bad}, std::invalid_argument);
    bad.shard_weights = {1e308, 1e308};  // each finite, the sum is not
    EXPECT_THROW(net::RemoteBackend{bad}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The stats frame: round-trip, version rejection, and aggregation.
// ---------------------------------------------------------------------------
TEST(FarmElasticity, StatsFrameRoundTripsLiveCounters) {
    const std::string fp = "sim-fast";
    auto server = start_server(transcendental_sim(), fp);
    BatchRunner runner(transcendental_sim(), remote_options({endpoint_of(*server)}, fp));
    runner.run_design(kSpace, full_factorial(2, 3));  // 9 distinct points

    net::ShardStats stats;
    std::string error;
    ASSERT_TRUE(net::query_shard_stats(net::parse_endpoint(endpoint_of(*server)), stats, error))
        << error;
    EXPECT_EQ(stats.version, net::kProtocolVersion);
    EXPECT_EQ(stats.points_served, 9u);
    EXPECT_EQ(stats.points_failed, 0u);
    EXPECT_EQ(stats.handshakes_rejected, 0u);
    EXPECT_EQ(stats.worker_respawns, 0u);
    EXPECT_GE(stats.connections_accepted, 2u);  // the eval conn + this poll
    EXPECT_GT(stats.uptime_seconds, 0.0);
    EXPECT_EQ(server->stats_served(), 1u);

    // The monitoring path never counts as evaluation traffic.
    EXPECT_EQ(server->points_served(), 9u);
}

TEST(FarmElasticity, StatsVersionMismatchIsRejectedWithAMessage) {
    auto server = start_server(transcendental_sim(), "sim-fast");

    const int fd = raw_connect(server->port());
    ASSERT_TRUE(net::write_stats_request(fd, net::kProtocolVersion + 5));
    std::uint64_t status = net::kStatusOk;
    net::ShardStats stats;
    std::string message;
    net::Reader in(fd);
    ASSERT_TRUE(net::read_stats_reply(in, status, stats, message));
    EXPECT_EQ(status, net::kStatusError);
    EXPECT_NE(message.find("protocol version mismatch"), std::string::npos) << message;
    ::close(fd);
    EXPECT_EQ(server->handshakes_rejected(), 1u);
    EXPECT_EQ(server->stats_served(), 0u);

    // A well-versed poll still succeeds afterwards: one bad monitor cannot
    // wedge the stats path.
    std::string error;
    EXPECT_TRUE(
        net::query_shard_stats(net::parse_endpoint(endpoint_of(*server)), stats, error))
        << error;
}

// ---------------------------------------------------------------------------
// FlakyProxy faults: a severed connection fails over bitwise-identically,
// and the severed shard rejoins through the same endpoint once the "cable"
// is back — no server restart involved.
// ---------------------------------------------------------------------------
TEST(FarmElasticity, SeveredConnectionFailsOverBitwiseIdenticalThenRejoins) {
    const std::string fp = "sim-slow";
    auto s1 = start_server(slow_sim(), fp);
    auto s2 = start_server(slow_sim(), fp);
    FlakyProxy proxy("127.0.0.1", s2->port());

    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*s1)),
                    net::parse_endpoint(proxy.endpoint())};
    ro.fingerprint = fp;
    ro.redial_seconds = 0.0;
    auto backend = std::make_shared<net::RemoteBackend>(ro);
    EXPECT_EQ(proxy.relays_opened(), 1u);  // the handshake went through it

    BatchRunner runner(backend);
    BatchRunner reference(transcendental_sim());

    // Cut the relay mid-batch, once the proxied shard has served points.
    const Design d1 = full_factorial(2, 9);
    std::thread cutter([&] {
        while (s2->points_served() < 3) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        proxy.sever();
    });
    const RunResults r1 = runner.run_design(kSpace, d1);
    cutter.join();
    EXPECT_TRUE(num::approx_equal(r1.responses,
                                  reference.run_design(kSpace, d1).responses, 0.0));
    EXPECT_EQ(r1.simulations, 81u);
    EXPECT_EQ(backend->live_endpoints(), 1u);

    // The next batch re-dials through the proxy (a fresh relay) and the
    // shard rejoins without its server ever restarting.
    const std::size_t served_before = s2->points_served();
    const Design d2 = full_factorial(2, 10);
    const RunResults r2 = runner.run_design(kSpace, d2);
    EXPECT_TRUE(num::approx_equal(r2.responses,
                                  reference.run_design(kSpace, d2).responses, 0.0));
    EXPECT_EQ(backend->live_endpoints(), 2u);
    EXPECT_GE(backend->rejoins(), 1u);
    EXPECT_GE(proxy.relays_opened(), 2u);
    EXPECT_GT(s2->points_served(), served_before);
}

TEST(FarmElasticity, DelayedLinkIsSlowButNotDeadAndStaysBitwiseIdentical) {
    const std::string fp = "sim-fast";
    auto s1 = start_server(transcendental_sim(), fp);
    auto s2 = start_server(transcendental_sim(), fp);
    FlakyProxy proxy("127.0.0.1", s2->port());

    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*s1)),
                    net::parse_endpoint(proxy.endpoint())};
    ro.fingerprint = fp;
    auto backend = std::make_shared<net::RemoteBackend>(ro);
    BatchRunner runner(backend);

    // A congested link delays every chunk; nothing dies and nothing may
    // fail over — latency is not a fault.
    proxy.set_delay_ms(2);
    const Design d = full_factorial(2, 4);  // 16 points
    const RunResults r = runner.run_design(kSpace, d);
    EXPECT_TRUE(num::approx_equal(
        r.responses, BatchRunner(transcendental_sim()).run_design(kSpace, d).responses, 0.0));
    EXPECT_EQ(backend->live_endpoints(), 2u);
    EXPECT_EQ(backend->rejoins(), 0u);
    EXPECT_GT(s2->points_served(), 0u);  // the delayed shard still served
}

TEST(FarmElasticity, BlackholedShardIsCutAndFailsOverBitwiseIdentically) {
    const std::string fp = "sim-slow";
    auto s1 = start_server(slow_sim(), fp);
    auto s2 = start_server(slow_sim(), fp);
    FlakyProxy proxy("127.0.0.1", s2->port());

    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*s1)),
                    net::parse_endpoint(proxy.endpoint())};
    ro.fingerprint = fp;
    ro.redial_seconds = -1.0;  // isolate the failover path
    auto backend = std::make_shared<net::RemoteBackend>(ro);
    BatchRunner runner(backend);

    // Packets start vanishing mid-batch (connection stays open, bytes are
    // dropped); shortly after, the dead link is cut outright. The batch
    // must fail over and complete identically — the blackholed period
    // loses responses, never corrupts them.
    const Design d = full_factorial(2, 9);
    std::thread dropper([&] {
        while (s2->points_served() < 3) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        proxy.set_blackhole(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        proxy.sever();
    });
    const RunResults r = runner.run_design(kSpace, d);
    dropper.join();
    EXPECT_TRUE(num::approx_equal(
        r.responses, BatchRunner(transcendental_sim()).run_design(kSpace, d).responses, 0.0));
    EXPECT_EQ(r.simulations, 81u);
    EXPECT_EQ(backend->live_endpoints(), 1u);
}

TEST(FarmElasticity, RefusedRedialKeepsShardDeadUntilServiceReturns) {
    const std::string fp = "sim-fast";
    auto s1 = start_server(transcendental_sim(), fp);
    auto s2 = start_server(transcendental_sim(), fp);
    FlakyProxy proxy("127.0.0.1", s2->port());

    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*s1)),
                    net::parse_endpoint(proxy.endpoint())};
    ro.fingerprint = fp;
    ro.redial_seconds = 0.0;
    auto backend = std::make_shared<net::RemoteBackend>(ro);
    // A fresh runner per batch, so no memo hit trims a batch.
    auto run = [&](std::size_t levels) {
        BatchRunner(backend).run_design(kSpace, full_factorial(2, levels));
    };

    // Kill the proxied shard's link, then make the endpoint accept-and-
    // close: the port is open but the service is not. Batch 1 detects the
    // severed connection (failover); batch 2's re-dial must then fail
    // cleanly (handshake dropped) and the shard stays dead.
    proxy.sever();
    proxy.set_refuse(true);
    run(4);
    EXPECT_EQ(backend->live_endpoints(), 1u);
    run(3);
    EXPECT_EQ(backend->live_endpoints(), 1u);
    EXPECT_GE(backend->redials_attempted(), 1u);
    EXPECT_EQ(backend->rejoins(), 0u);

    // Service restored: the next batch rejoins through a real relay.
    proxy.set_refuse(false);
    run(5);
    EXPECT_EQ(backend->live_endpoints(), 2u);
    EXPECT_EQ(backend->rejoins(), 1u);
}
