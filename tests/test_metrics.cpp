// The farm health plane's data model and wire (PR-10): the metric
// registry's ring semantics (wrap, sequence numbers, registration-order
// columns, the pre-sample hook), the window/delta reductions the monitors
// build on, the stats-reply ring codec (round trip, for eval and store
// replies alike), live servers serving their rings through the stats
// connection, and the Prometheus text-exposition helpers.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "doe/batch_runner.hpp"
#include "doe/factorial.hpp"
#include "net/eval_server.hpp"
#include "net/remote_backend.hpp"
#include "net/wire.hpp"
#include "net_test_utils.hpp"
#include "store/store_client.hpp"
#include "store/store_server.hpp"

using namespace ehdoe;
using namespace ehdoe::net_test;
namespace metrics = ehdoe::core::metrics;
using ehdoe::num::Vector;

namespace {

const doe::DesignSpace kSpace({{"x", 0.0, 10.0, false}, {"y", -5.0, 5.0, false}});

core::Simulation identity_sim() {
    return [](const Vector& nat) -> std::map<std::string, double> {
        return {{"f", nat[0]}};
    };
}

/// A scratch store directory that dies with the test.
class TempDir {
public:
    explicit TempDir(const std::string& stem) {
        static int seq = 0;
        path_ = (std::filesystem::temp_directory_path() /
                 (stem + "-" + std::to_string(::getpid()) + "-" + std::to_string(seq++)))
                    .string();
        std::filesystem::create_directories(path_);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry semantics.
// ---------------------------------------------------------------------------
TEST(MetricsRegistry, RingWrapsOldestFirstWithSequenceNumbers) {
    metrics::Registry reg(4);
    double counter = 0.0;
    reg.register_series("c", [&] { return counter; });
    reg.set_interval_us(5'000'000);

    for (int i = 0; i < 6; ++i) {
        counter = 10.0 * (i + 1);
        reg.sample_now(static_cast<std::uint64_t>(100 * (i + 1)));
    }
    EXPECT_EQ(reg.samples_taken(), 6u);

    const metrics::RingSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.interval_us, 5'000'000u);
    ASSERT_EQ(snap.rows.size(), 4u) << "capacity 4 must retain the last 4 of 6 samples";
    EXPECT_EQ(snap.first_seq, 2u) << "rows 0 and 1 were evicted";
    ASSERT_EQ(snap.series, std::vector<std::string>{"c"});
    // Oldest-first: samples 3..6.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(snap.rows[i].t_us, 100u * (i + 3));
        EXPECT_EQ(snap.rows[i].values.at(0), 10.0 * (i + 3));
    }
}

TEST(MetricsRegistry, ColumnsFollowRegistrationOrder) {
    metrics::Registry reg;
    reg.register_series("served", [] { return 7.0; });
    reg.register_series("failed", [] { return 1.0; });
    reg.register_series("in_flight", [] { return 3.0; });
    EXPECT_EQ(reg.series_count(), 3u);
    reg.sample_now(42);

    const metrics::RingSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.first_seq, 0u);
    const std::vector<std::string> expected{"served", "failed", "in_flight"};
    EXPECT_EQ(snap.series, expected);
    ASSERT_EQ(snap.rows.size(), 1u);
    EXPECT_EQ(snap.rows[0].values, (std::vector<double>{7.0, 1.0, 3.0}));
}

TEST(MetricsRegistry, RegisterAfterFirstSampleThrows) {
    metrics::Registry reg;
    reg.register_series("a", [] { return 0.0; });
    reg.sample_now(1);
    EXPECT_THROW(reg.register_series("b", [] { return 0.0; }), std::logic_error)
        << "the row width is fixed once sampling starts";
}

TEST(MetricsRegistry, PreSampleHookRunsBeforeProbesEachSample) {
    metrics::Registry reg;
    double shared = 0.0;
    int hook_runs = 0;
    reg.set_pre_sample([&] {
        ++hook_runs;
        shared = 100.0 * hook_runs;
    });
    reg.register_series("derived", [&] { return shared; });

    reg.sample_now(1);
    reg.sample_now(2);
    EXPECT_EQ(hook_runs, 2);
    const metrics::RingSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.rows.size(), 2u);
    EXPECT_EQ(snap.rows[0].values.at(0), 100.0);
    EXPECT_EQ(snap.rows[1].values.at(0), 200.0);
}

// ---------------------------------------------------------------------------
// Ring reductions — what `ehdoe-farm top`, `export` and the straggler test
// compute from a snapshot.
// ---------------------------------------------------------------------------
namespace {

metrics::RingSnapshot ring_of(std::vector<std::string> series,
                              std::vector<std::vector<double>> rows) {
    metrics::RingSnapshot ring;
    ring.interval_us = 1'000'000;
    ring.series = std::move(series);
    std::uint64_t t = 100;
    for (auto& values : rows) {
        metrics::RingSnapshot::Row row;
        row.t_us = t += 100;
        row.values = std::move(values);
        ring.rows.push_back(std::move(row));
    }
    return ring;
}

}  // namespace

TEST(MetricsAlgebra, FindSeriesReturnsColumnOrMinusOne) {
    const metrics::RingSnapshot ring = ring_of({"served", "p99_us"}, {});
    EXPECT_EQ(metrics::find_series(ring, "served"), 0);
    EXPECT_EQ(metrics::find_series(ring, "p99_us"), 1);
    EXPECT_EQ(metrics::find_series(ring, "absent"), -1);
}

TEST(MetricsAlgebra, LastDeltaIsTheIncrementBetweenTheLastTwoRows) {
    const metrics::RingSnapshot ring =
        ring_of({"served"}, {{10.0}, {25.0}, {40.0}});
    EXPECT_EQ(metrics::last_delta(ring, 0), 15.0);
    EXPECT_EQ(metrics::last_delta(ring, 9), 0.0) << "missing column reads as 0";
    const metrics::RingSnapshot one = ring_of({"served"}, {{10.0}});
    EXPECT_EQ(metrics::last_delta(one, 0), 0.0) << "one row has no delta";
}

TEST(MetricsAlgebra, MedianPositiveIgnoresZerosAndNegatives) {
    EXPECT_EQ(metrics::median_positive({}), 0.0);
    EXPECT_EQ(metrics::median_positive({0.0, -3.0, 0.0}), 0.0);
    EXPECT_EQ(metrics::median_positive({5.0}), 5.0);
    EXPECT_EQ(metrics::median_positive({0.0, 9.0, 1.0, 5.0}), 5.0);
    EXPECT_EQ(metrics::median_positive({4.0, 8.0, -1.0, 0.0}), 6.0)
        << "even count averages the middle pair";
}

TEST(MetricsAlgebra, StragglersCompareEachShardWithTheOthersMedian) {
    using Signals = std::vector<std::optional<double>>;
    using Flags = std::vector<bool>;
    // A sub-microsecond shard reads 0 and still counts: the slow shard is
    // compared with the median of 6 and 0, the fast ones with the slow one.
    EXPECT_EQ(metrics::stragglers(Signals{6.0, 0.0, 49152.0}, 2.0), (Flags{false, false, true}));
    // Two shards: each against the other alone.
    EXPECT_EQ(metrics::stragglers(Signals{3.0, 49152.0}, 2.0), (Flags{false, true}));
    EXPECT_EQ(metrics::stragglers(Signals{0.0, 100.0}, 2.0), (Flags{false, true}));
    EXPECT_EQ(metrics::stragglers(Signals{0.0, 0.0}, 2.0), (Flags{false, false}));
    EXPECT_EQ(metrics::stragglers(Signals{40.0, 20.0}, 2.0), (Flags{false, false}))
        << "exactly twice the other is not more than twice";
    // No signal (down, or no points served) is neither flagged nor a peer.
    EXPECT_EQ(metrics::stragglers(Signals{std::nullopt, 10.0, 100.0}, 2.0),
              (Flags{false, false, true}));
    EXPECT_EQ(metrics::stragglers(Signals{500.0, std::nullopt}, 2.0), (Flags{false, false}))
        << "a single shard has no farm to straggle behind";
    EXPECT_EQ(metrics::stragglers(Signals{}, 2.0), Flags{});
    // Two others average: 70 against the mean of 10 and 30.
    EXPECT_EQ(metrics::stragglers(Signals{10.0, 30.0, 70.0}, 2.0), (Flags{false, false, true}));
    EXPECT_EQ(metrics::stragglers(Signals{10.0, 10.0, 10.0}, 2.0), (Flags{false, false, false}));
}

TEST(MetricsAlgebra, WindowValueIsTheMedianOfPositiveSamples) {
    // Idle rows (p99 = 0) must not drag the window down.
    const metrics::RingSnapshot ring = ring_of(
        {"served", "p99_us"}, {{1.0, 0.0}, {2.0, 300.0}, {3.0, 0.0}, {4.0, 500.0}});
    EXPECT_EQ(metrics::window_value(ring, 1), 400.0);
    EXPECT_EQ(metrics::window_value(ring, 0), 2.5);
    EXPECT_EQ(metrics::window_value(ring, 7), 0.0) << "missing column reads as 0";
}

// ---------------------------------------------------------------------------
// The stats wire. A socketpair is transport enough: the codec is the
// same read_exact/write_all discipline TCP uses.
// ---------------------------------------------------------------------------
namespace {

metrics::RingSnapshot sample_ring() {
    metrics::RingSnapshot ring = ring_of(
        {"served", "failed"}, {{3.0, 0.0}, {8.0, 1.0}, {21.0, 1.0}});
    ring.interval_us = 250'000;
    ring.first_seq = 17;
    return ring;
}

void expect_ring_eq(const metrics::RingSnapshot& got, const metrics::RingSnapshot& want) {
    EXPECT_EQ(got.interval_us, want.interval_us);
    EXPECT_EQ(got.first_seq, want.first_seq);
    EXPECT_EQ(got.series, want.series);
    ASSERT_EQ(got.rows.size(), want.rows.size());
    for (std::size_t i = 0; i < got.rows.size(); ++i) {
        EXPECT_EQ(got.rows[i].t_us, want.rows[i].t_us);
        EXPECT_EQ(got.rows[i].values, want.rows[i].values) << "row " << i;
    }
}

}  // namespace

TEST(MetricsWire, EvalStatsReplyRoundTripsTheRingAtV7) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    net::ShardStats out;
    out.points_served = 1234;
    out.latency_buckets = {{10, 3}, {11, 1}};
    out.latency_p50_us = 120.0;
    out.latency_p95_us = 450.0;
    out.latency_p99_us = 900.0;
    out.metrics = sample_ring();
    ASSERT_TRUE(net::write_stats_reply(sv[0], net::kStatusOk, out, ""));

    net::ShardStats in;
    std::uint64_t status = net::kStatusError;
    std::string message;
    net::Reader reader(sv[1]);
    ASSERT_TRUE(net::read_stats_reply(reader, status, in, message));
    EXPECT_EQ(status, net::kStatusOk);
    EXPECT_EQ(in.points_served, 1234u);
    EXPECT_EQ(in.latency_buckets, out.latency_buckets);
    expect_ring_eq(in.metrics, out.metrics);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(MetricsWire, StoreStatsReplyRoundTripsTheRingAtV7) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    net::StoreStats out;
    out.keys = 45;
    out.segments = 2;
    out.get_hits = 44;
    out.metrics = sample_ring();
    ASSERT_TRUE(net::write_store_stats_reply(sv[0], net::kStatusOk, out, ""));

    net::StoreStats in;
    std::uint64_t status = net::kStatusError;
    std::string message;
    net::Reader reader(sv[1]);
    ASSERT_TRUE(net::read_store_stats_reply(reader, status, in, message));
    EXPECT_EQ(status, net::kStatusOk);
    EXPECT_EQ(in.keys, 45u);
    EXPECT_EQ(in.get_hits, 44u);
    expect_ring_eq(in.metrics, out.metrics);
    ::close(sv[0]);
    ::close(sv[1]);
}

// ---------------------------------------------------------------------------
// Live servers serving their rings.
// ---------------------------------------------------------------------------
TEST(MetricsService, EvalServerServesItsRingInTheStatsReply) {
    net::EvalServerOptions o;
    o.workers = 2;
    o.fingerprint = "sim-id";
    // A huge interval parks the sampler thread; the test samples by hand so
    // the ring contents are deterministic.
    o.metrics_interval_seconds = 3600.0;
    net::EvalServer server(identity_sim(), o);
    server.start();
    server.sample_metrics_now();  // row 0: nothing served yet

    doe::BatchRunner runner(identity_sim(),
                            remote_options({endpoint_of(server)}, "sim-id"));
    ASSERT_EQ(runner.run_design(kSpace, doe::full_factorial(2, 3)).simulations, 9u);
    server.sample_metrics_now();  // row 1: nine points served

    net::ShardStats stats;
    std::string error;
    ASSERT_TRUE(net::query_shard_stats(
        net::parse_endpoint(endpoint_of(server)), stats, error))
        << error;
    EXPECT_EQ(stats.version, net::kProtocolVersion);
    EXPECT_EQ(stats.points_served, 9u);

    const metrics::RingSnapshot& ring = stats.metrics;
    ASSERT_FALSE(ring.empty());
    EXPECT_EQ(ring.interval_us, 3600u * 1'000'000u);
    ASSERT_EQ(ring.rows.size(), 2u);
    // The shard's advertised series include every column the monitors use.
    for (const char* name :
         {"served", "failed", "timed_out", "in_flight", "p50_us", "p95_us", "p99_us"}) {
        EXPECT_GE(metrics::find_series(ring, name), 0) << name;
    }
    const int served = metrics::find_series(ring, "served");
    EXPECT_EQ(ring.rows[0].values.at(static_cast<std::size_t>(served)), 0.0);
    EXPECT_EQ(ring.rows[1].values.at(static_cast<std::size_t>(served)), 9.0);
    EXPECT_EQ(metrics::last_delta(ring, static_cast<std::size_t>(served)), 9.0);
    // The interval's percentile columns saw nine real evaluations.
    const int p99 = metrics::find_series(ring, "p99_us");
    EXPECT_GT(ring.rows[1].values.at(static_cast<std::size_t>(p99)), 0.0);
    server.stop();
}

TEST(MetricsService, EvalServerWithSamplingOffServesAnEmptyRing) {
    auto server = start_server(identity_sim(), "sim-id");
    net::ShardStats stats;
    std::string error;
    ASSERT_TRUE(net::query_shard_stats(
        net::parse_endpoint(endpoint_of(*server)), stats, error))
        << error;
    EXPECT_TRUE(stats.metrics.empty()) << "metrics default off: no ring rows";
    EXPECT_EQ(stats.metrics.interval_us, 0u);
    server->stop();
}

TEST(MetricsService, StoreServerServesItsRingAndQueryHelperParsesIt) {
    TempDir dir("ehdoe-metrics-store");
    store::StoreServerOptions o;
    o.dir = dir.path();
    o.verbose = false;
    o.metrics_interval_seconds = 3600.0;
    store::StoreServer server(o);
    server.start();
    server.sample_metrics_now();  // row 0: empty store

    store::StoreClient client("127.0.0.1", server.port());
    std::vector<net::StoreEntry> entries(2);
    entries[0].key = "k1";
    entries[0].responses = {{"f", 1.0}};
    entries[1].key = "k2";
    entries[1].responses = {{"f", 2.0}};
    ASSERT_EQ(client.put(entries), 2u);
    auto lookups = client.get({"k1", "missing"});
    ASSERT_EQ(lookups.size(), 2u);
    server.sample_metrics_now();  // row 1: 2 keys, 2 gets, 1 hit

    // Through the endpoint-string helper the CLIs use.
    net::StoreStats stats;
    std::string error;
    ASSERT_TRUE(store::query_store_stats(
        "127.0.0.1:" + std::to_string(server.port()), stats, error))
        << error;
    EXPECT_EQ(stats.keys, 2u);
    const metrics::RingSnapshot& ring = stats.metrics;
    ASSERT_EQ(ring.rows.size(), 2u);
    for (const char* name : {"keys", "segments", "gets_served", "get_hits",
                             "puts_received", "records_appended"}) {
        EXPECT_GE(metrics::find_series(ring, name), 0) << name;
    }
    const int keys = metrics::find_series(ring, "keys");
    const int gets = metrics::find_series(ring, "gets_served");
    const int hits = metrics::find_series(ring, "get_hits");
    EXPECT_EQ(ring.rows[0].values.at(static_cast<std::size_t>(keys)), 0.0);
    EXPECT_EQ(ring.rows[1].values.at(static_cast<std::size_t>(keys)), 2.0);
    EXPECT_EQ(metrics::last_delta(ring, static_cast<std::size_t>(gets)), 2.0);
    EXPECT_EQ(metrics::last_delta(ring, static_cast<std::size_t>(hits)), 1.0);

    // Malformed endpoint strings fail with a message, not an exception.
    error.clear();
    EXPECT_FALSE(store::query_store_stats("no-port-here", stats, error));
    EXPECT_FALSE(error.empty());
    server.stop();
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------------------
TEST(MetricsExposition, EscapesLabelValues) {
    EXPECT_EQ(metrics::escape_label_value("plain"), "plain");
    EXPECT_EQ(metrics::escape_label_value("a\\b"), "a\\\\b");
    EXPECT_EQ(metrics::escape_label_value("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(metrics::escape_label_value("line\nbreak"), "line\\nbreak");
}

TEST(MetricsExposition, RendersHeadersAndSamples) {
    std::string out;
    metrics::append_exposition_header(out, "ehdoe_eval_points_served_total",
                                      "Result frames answered.", "counter");
    metrics::append_sample(out, "ehdoe_eval_points_served_total",
                           {{"endpoint", "127.0.0.1:4217"}}, 42.0);
    metrics::append_sample(out, "ehdoe_up", {}, 1.0);
    EXPECT_EQ(out,
              "# HELP ehdoe_eval_points_served_total Result frames answered.\n"
              "# TYPE ehdoe_eval_points_served_total counter\n"
              "ehdoe_eval_points_served_total{endpoint=\"127.0.0.1:4217\"} 42\n"
              "ehdoe_up 1\n");
}

TEST(MetricsExposition, NonFiniteValuesRenderAsZero) {
    std::string out;
    metrics::append_sample(out, "m", {}, std::nan(""));
    EXPECT_EQ(out, "m 0\n");
}
