// End-to-end telemetry (core/telemetry.hpp + core/trace_merge.hpp): the
// log-bucketed latency histogram's index/floor/percentile/merge algebra,
// the span recorder's Chrome trace-event export, the determinism contract
// (tracing on vs off is bitwise identical across the in-process, exec and
// remote backends — the PR's acceptance criterion), clock re-anchoring in
// the trace merger, and a full round trip: two real ehdoe-eval-server
// daemons run with --trace, a traced client drives the S1 CCD through
// them, and the merged timeline carries exactly one server eval span per
// point evaluated.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/inprocess_backend.hpp"
#include "core/perf_gate.hpp"
#include "core/scenario.hpp"
#include "core/telemetry.hpp"
#include "core/trace_merge.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "doe/design.hpp"
#include "exec_test_utils.hpp"
#include "net/wire.hpp"
#include "net_test_utils.hpp"

#ifndef EHDOE_EVAL_SERVER_BIN
#error "CMake must define EHDOE_EVAL_SERVER_BIN (the eval-server's path)"
#endif

using namespace ehdoe;
using core::telemetry::LatencyHistogram;
using ehdoe::num::Vector;

namespace {

/// The S1 CCD in natural units — the canonical workload of the
/// determinism tests.
std::vector<Vector> s1_ccd_points(const core::Scenario& sc) {
    const doe::DesignSpace space = sc.design_space();
    const doe::Design ccd = doe::central_composite(space.dimension());
    const num::Matrix natural = doe::to_natural(space, ccd);
    std::vector<Vector> points;
    points.reserve(natural.rows());
    for (std::size_t r = 0; r < natural.rows(); ++r) points.push_back(natural.row(r));
    return points;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Find the event objects with `name` in a parsed trace.
std::vector<const core::JsonValue*> events_named(const core::JsonValue& trace,
                                                 const std::string& name) {
    std::vector<const core::JsonValue*> out;
    const core::JsonValue* events = core::json_lookup(trace, "traceEvents");
    if (!events) return out;
    for (const core::JsonValue& e : events->array) {
        const core::JsonValue* n = core::json_lookup(e, "name");
        if (n && n->kind == core::JsonValue::Kind::String && n->string == name)
            out.push_back(&e);
    }
    return out;
}

double number_field(const core::JsonValue& event, const std::string& path) {
    const core::JsonValue* v = core::json_lookup(event, path);
    if (!v || v->kind != core::JsonValue::Kind::Number)
        throw std::runtime_error("missing number field " + path);
    return v->number;
}

/// The recorder switch is process-global and enable() is sticky; every
/// test that touches it restores the default (disabled, empty) state so
/// suites stay order-independent.
class TelemetryTest : public ::testing::Test {
protected:
    void TearDown() override {
        core::telemetry::disable();
        core::telemetry::reset();
    }
};

}  // namespace

// ---------------------------------------------------------------------------
// Latency histogram algebra
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, BucketIndexIsMonotonicAndFloorBrackets) {
    std::size_t prev = 0;
    // Dense sweep through the linear region, then geometric growth across
    // the log region: indexes never decrease, every value lands inside
    // [floor(index), floor(index + 1)).
    std::vector<std::uint64_t> values;
    for (std::uint64_t v = 0; v <= 200; ++v) values.push_back(v);
    for (std::uint64_t v = 256; v < (1ull << 50); v = v + v / 2) values.push_back(v);
    for (const std::uint64_t v : values) {
        const std::size_t idx = LatencyHistogram::bucket_index(v);
        ASSERT_LT(idx, LatencyHistogram::kBuckets) << "v=" << v;
        ASSERT_GE(idx, prev) << "v=" << v;
        prev = idx;
        ASSERT_LE(LatencyHistogram::bucket_floor(idx), v) << "v=" << v;
        if (idx + 1 < LatencyHistogram::kBuckets) {
            ASSERT_GT(LatencyHistogram::bucket_floor(idx + 1), v) << "v=" << v;
        }
    }
}

TEST(LatencyHistogramTest, ExactRankPercentiles) {
    LatencyHistogram h;
    EXPECT_EQ(h.percentile_us(50.0), 0.0);  // empty -> 0 by contract

    for (int i = 0; i < 50; ++i) h.record_us(100);
    for (int i = 0; i < 45; ++i) h.record_us(2000);
    for (int i = 0; i < 5; ++i) h.record_us(90000);
    ASSERT_EQ(h.total(), 100u);

    const auto floor_of = [](std::uint64_t us) {
        return static_cast<double>(
            LatencyHistogram::bucket_floor(LatencyHistogram::bucket_index(us)));
    };
    // Exact ranks: sample 50 is still a 100 µs one, 95 is a 2 ms one, 99
    // lands in the 90 ms tail. Values are bucket floors (~6% resolution).
    EXPECT_EQ(h.percentile_us(50.0), floor_of(100));
    EXPECT_EQ(h.percentile_us(95.0), floor_of(2000));
    EXPECT_EQ(h.percentile_us(99.0), floor_of(90000));
    EXPECT_EQ(h.percentile_us(100.0), floor_of(90000));
}

TEST(LatencyHistogramTest, MergeSubtractAndWireRoundTrip) {
    LatencyHistogram a;
    a.record_us(10);
    a.record_us(500);
    LatencyHistogram b;
    b.record_us(500);
    b.record_us(70000);

    LatencyHistogram merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.total(), 4u);

    // Snapshot delta: record on top of a copy, subtract the snapshot, and
    // only the interval's samples remain (the bench idiom).
    LatencyHistogram later = a;
    later.record_us(9999);
    later.subtract(a);
    ASSERT_EQ(later.total(), 1u);
    EXPECT_EQ(later.percentile_us(50.0),
              static_cast<double>(
                  LatencyHistogram::bucket_floor(LatencyHistogram::bucket_index(9999))));

    // sparse() -> add_bucket() is the wire representation; it must round
    // trip losslessly.
    LatencyHistogram decoded;
    for (const auto& [index, count] : merged.sparse()) {
        decoded.add_bucket(static_cast<std::size_t>(index), count);
    }
    EXPECT_EQ(decoded.total(), merged.total());
    EXPECT_EQ(decoded.sparse(), merged.sparse());
    EXPECT_THROW(decoded.add_bucket(LatencyHistogram::kBuckets, 1), std::out_of_range);

    LatencyHistogram seconds;
    seconds.record_seconds(0.001);
    ASSERT_EQ(seconds.total(), 1u);
    EXPECT_EQ(seconds.percentile_us(50.0),
              static_cast<double>(
                  LatencyHistogram::bucket_floor(LatencyHistogram::bucket_index(1000))));
}

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, DisabledRecorderRecordsNothing) {
    core::telemetry::reset();
    ASSERT_FALSE(core::telemetry::enabled());
    {
        core::telemetry::Span span("noop", "test");
        span.arg("n", std::uint64_t{1});
    }
    core::telemetry::instant("noop", "test");
    core::telemetry::counter("noop", "test", 1.0);
    EXPECT_EQ(core::telemetry::event_count(), 0u);
}

TEST_F(TelemetryTest, WriteJsonProducesValidChromeTrace) {
    core::telemetry::enable();
    core::telemetry::reset();
    core::telemetry::set_process_label("telemetry-unit-test");
    {
        core::telemetry::Span span("alpha", "unit");
        span.arg("rows", std::uint64_t{42});
        span.arg("where", std::string("here"));
    }
    std::thread other([] { core::telemetry::Span span("beta", "unit"); });
    other.join();
    core::telemetry::instant("mark", "unit");
    core::telemetry::counter("depth", "unit", 2.0);
    EXPECT_GE(core::telemetry::event_count(), 4u);

    exec_test::TempDir dir("telemetry-json");
    const std::string path = dir.path() + "/trace.json";
    ASSERT_TRUE(core::telemetry::write_json(path));

    const core::JsonValue trace = core::parse_json(slurp(path));
    const core::JsonValue* events = core::json_lookup(trace, "traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, core::JsonValue::Kind::Array);

    const auto alphas = events_named(trace, "alpha");
    ASSERT_EQ(alphas.size(), 1u);
    EXPECT_EQ(core::json_lookup(*alphas[0], "ph")->string, "X");
    EXPECT_GE(number_field(*alphas[0], "dur"), 0.0);
    EXPECT_EQ(number_field(*alphas[0], "args.rows"), 42.0);
    EXPECT_EQ(core::json_lookup(*alphas[0], "args.where")->string, "here");

    // The two spans ran on different threads -> distinct tids.
    const auto betas = events_named(trace, "beta");
    ASSERT_EQ(betas.size(), 1u);
    EXPECT_NE(number_field(*alphas[0], "tid"), number_field(*betas[0], "tid"));

    ASSERT_EQ(events_named(trace, "mark").size(), 1u);
    EXPECT_EQ(core::json_lookup(*events_named(trace, "mark")[0], "ph")->string, "i");
    ASSERT_EQ(events_named(trace, "depth").size(), 1u);
    EXPECT_EQ(core::json_lookup(*events_named(trace, "depth")[0], "ph")->string, "C");

    // Process metadata names the label set above.
    bool labelled = false;
    for (const core::JsonValue* meta : events_named(trace, "process_name")) {
        const core::JsonValue* name = core::json_lookup(*meta, "args.name");
        if (name && name->string == "telemetry-unit-test") labelled = true;
    }
    EXPECT_TRUE(labelled);
}

// ---------------------------------------------------------------------------
// Determinism contract: tracing on vs off is bitwise identical (the
// acceptance criterion), across all three backend families.
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, TracingOnVsOffBitwiseIdenticalInProcess) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const std::vector<Vector> points = s1_ccd_points(sc);

    doe::RunnerOptions off;
    off.threads = 2;
    std::vector<doe::ResponseMap> base;
    {
        doe::BatchRunner runner(sc.make_simulation(), off);
        base = runner.evaluate(points);
    }

    exec_test::TempDir dir("telemetry-inproc");
    doe::RunnerOptions on = off;
    on.trace_file = dir.path() + "/client.json";
    std::vector<doe::ResponseMap> traced;
    {
        doe::BatchRunner runner(sc.make_simulation(), on);
        traced = runner.evaluate(points);
    }

    ASSERT_EQ(traced.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) EXPECT_EQ(traced[i], base[i]);

    // The trace flushed on destruction and holds the runner's span tree.
    const core::JsonValue trace = core::parse_json(slurp(on.trace_file));
    EXPECT_GE(events_named(trace, "batch").size(), 1u);
    EXPECT_GE(events_named(trace, "dedup").size(), 1u);
    EXPECT_GE(events_named(trace, "task").size(), 1u);
}

TEST_F(TelemetryTest, TracingOnVsOffBitwiseIdenticalExec) {
    exec_test::TempDir dir("telemetry-exec");
    const std::string recipe = exec_test::write_file(dir, "s1.recipe",
                                                     exec_test::s1_recipe_text(30.0));
    const std::vector<Vector> points = exec_test::s1_points(6);

    doe::RunnerOptions off;
    off.recipe_file = recipe;
    off.threads = 2;
    std::vector<doe::ResponseMap> base;
    {
        doe::BatchRunner runner(doe::Simulation{}, off);
        base = runner.evaluate(points);
    }

    doe::RunnerOptions on = off;
    on.trace_file = dir.path() + "/client.json";
    std::vector<doe::ResponseMap> traced;
    {
        doe::BatchRunner runner(doe::Simulation{}, on);
        traced = runner.evaluate(points);
    }

    ASSERT_EQ(traced.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) EXPECT_EQ(traced[i], base[i]);

    // One launch + run-point span per external simulator process.
    const core::JsonValue trace = core::parse_json(slurp(on.trace_file));
    EXPECT_EQ(events_named(trace, "run-point").size(), points.size());
    EXPECT_EQ(events_named(trace, "launch").size(), points.size());
}

TEST_F(TelemetryTest, TracingOnVsOffBitwiseIdenticalRemote) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const std::vector<Vector> points = s1_ccd_points(sc);

    auto server = net_test::start_server(sc.make_simulation(), sc.fingerprint());
    const doe::RunnerOptions off =
        net_test::remote_options({net_test::endpoint_of(*server)}, sc.fingerprint());
    std::vector<doe::ResponseMap> base;
    {
        doe::BatchRunner runner(sc.make_simulation(), off);
        base = runner.evaluate(points);
    }

    exec_test::TempDir dir("telemetry-remote");
    doe::RunnerOptions on = off;
    on.trace_file = dir.path() + "/client.json";
    std::vector<doe::ResponseMap> traced;
    {
        doe::BatchRunner runner(sc.make_simulation(), on);
        traced = runner.evaluate(points);
    }

    ASSERT_EQ(traced.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) EXPECT_EQ(traced[i], base[i]);

    // The client side of the wire shows up: a handshake carrying the
    // welcome's clock offset, dispatches and receives.
    const core::JsonValue trace = core::parse_json(slurp(on.trace_file));
    const auto handshakes = events_named(trace, "handshake");
    ASSERT_GE(handshakes.size(), 1u);
    bool offset_seen = false;
    for (const core::JsonValue* h : handshakes) {
        if (core::json_lookup(*h, "args.offset_us")) offset_seen = true;
    }
    EXPECT_TRUE(offset_seen);
    EXPECT_GE(events_named(trace, "dispatch").size(), 1u);
    EXPECT_GE(events_named(trace, "receive").size(), 1u);
}

TEST_F(TelemetryTest, BatchedServerTaskAnswersEveryPointWithOneSpanAndSampleEach) {
    // A width-4 model on a one-worker shard: the frame's four points are one
    // pool task and one call of the model, and the point that throws fails
    // alone.
    const core::Simulation sim = core::Simulation::batched(
        4, [](const Vector* points, std::size_t n, core::PointOutcome* out) {
            for (std::size_t i = 0; i < n; ++i) {
                if (points[i][0] == 2.0) {
                    out[i].error = std::make_exception_ptr(std::runtime_error("two fails"));
                } else {
                    out[i].responses = {{"f", points[i][0]}};
                }
            }
        });
    core::telemetry::enable();
    core::telemetry::reset();
    auto server = net_test::start_server(sim, "batched", /*workers=*/1);

    const int fd = net_test::raw_connect(server->port());
    net::Hello hello;
    hello.version = net::kProtocolVersion;
    hello.fingerprint = "batched";
    ASSERT_TRUE(net::write_hello(fd, hello));
    net::Reader in(fd);
    std::uint64_t status = net::kStatusError;
    std::string message;
    ASSERT_TRUE(net::read_welcome(in, status, message));
    ASSERT_EQ(status, net::kStatusOk) << message;
    const std::vector<Vector> points = {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}};
    std::vector<unsigned char> scratch;
    ASSERT_TRUE(net::write_batch_request(fd, points, {0, 1, 2, 3}, scratch));
    std::vector<net::EvalResult> results;
    ASSERT_TRUE(net::read_batch_result(in, points.size(), results));
    ::close(fd);

    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        if (i == 2) {
            EXPECT_FALSE(results[i].ok);
            EXPECT_NE(results[i].error.find("two fails"), std::string::npos) << results[i].error;
        } else {
            ASSERT_TRUE(results[i].ok) << results[i].error;
            EXPECT_EQ(results[i].responses.at("f"), points[i][0]);
        }
    }
    EXPECT_EQ(server->points_served(), 3u);
    EXPECT_EQ(server->points_failed(), 1u);
    EXPECT_EQ(server->points_in_flight(), 0u);
    EXPECT_EQ(server->latency_histogram().total(), points.size());
    server->stop();

    exec_test::TempDir dir("telemetry-batched");
    const std::string path = dir.path() + "/server.json";
    ASSERT_TRUE(core::telemetry::write_json(path));
    EXPECT_EQ(events_named(core::parse_json(slurp(path)), "eval").size(), points.size());
}

// ---------------------------------------------------------------------------
// Trace merging: clock re-anchoring on synthetic inputs
// ---------------------------------------------------------------------------

TEST(TraceMergeTest, ShiftsServerClockOntoClientTimeline) {
    const std::string client = R"({"traceEvents":[
        {"name":"handshake","cat":"net","ph":"X","ts":1000,"dur":50,"pid":7,"tid":1,
         "args":{"endpoint":"127.0.0.1:9001","version":5,"offset_us":500}},
        {"name":"batch","cat":"runner","ph":"X","ts":1100,"dur":900,"pid":7,"tid":1,
         "args":{"rows":3}}
    ]})";
    // The server bound the wildcard address: the ":port" suffix must still
    // match the client's handshake endpoint.
    const std::string server = R"({"traceEvents":[
        {"name":"listening","cat":"server","ph":"i","ts":100,"pid":7,"tid":1,
         "args":{"endpoint":"0.0.0.0:9001"}},
        {"name":"eval","cat":"server","ph":"X","ts":700,"dur":100,"pid":7,"tid":2,"args":{}},
        {"name":"eval","cat":"server","ph":"X","ts":800,"dur":100,"pid":7,"tid":2,"args":{}},
        {"name":"eval","cat":"server","ph":"X","ts":900,"dur":50,"pid":7,"tid":3,"args":{}}
    ]})";

    const core::TraceMergeResult merged = core::merge_traces(client, {server});
    EXPECT_TRUE(merged.warnings.empty())
        << (merged.warnings.empty() ? "" : merged.warnings.front());
    EXPECT_EQ(merged.client_events, 2u);
    EXPECT_EQ(merged.server_events, 4u);
    EXPECT_EQ(merged.eval_spans, 3u);
    EXPECT_EQ(merged.batches, 1u);
    EXPECT_FALSE(merged.summary.empty());

    const core::JsonValue trace = core::parse_json(merged.json);
    // Server events shifted by offset_us = +500 onto the client clock and
    // renumbered into their own lane (client pid 1, first server pid 2).
    const auto evals = events_named(trace, "eval");
    ASSERT_EQ(evals.size(), 3u);
    std::vector<double> ts;
    for (const core::JsonValue* e : evals) {
        ts.push_back(number_field(*e, "ts"));
        EXPECT_EQ(number_field(*e, "pid"), 2.0);
    }
    std::sort(ts.begin(), ts.end());
    EXPECT_EQ(ts, (std::vector<double>{1200.0, 1300.0, 1400.0}));
    const auto batches = events_named(trace, "batch");
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(number_field(*batches[0], "pid"), 1.0);
}

TEST(TraceMergeTest, UnmatchedServerMergesUnshiftedWithWarning) {
    const std::string client = R"({"traceEvents":[
        {"name":"handshake","cat":"net","ph":"X","ts":1000,"dur":50,"pid":1,"tid":1,
         "args":{"endpoint":"127.0.0.1:9001","version":5,"offset_us":500}}
    ]})";
    const std::string stranger = R"({"traceEvents":[
        {"name":"listening","cat":"server","ph":"i","ts":100,"pid":1,"tid":1,
         "args":{"endpoint":"10.0.0.1:4217"}},
        {"name":"eval","cat":"server","ph":"X","ts":700,"dur":100,"pid":1,"tid":2,"args":{}}
    ]})";

    const core::TraceMergeResult merged = core::merge_traces(client, {stranger});
    ASSERT_EQ(merged.warnings.size(), 1u);
    EXPECT_NE(merged.warnings.front().find("10.0.0.1:4217"), std::string::npos);

    // Visible, never dropped: the eval span survives with its original ts.
    const core::JsonValue trace = core::parse_json(merged.json);
    const auto evals = events_named(trace, "eval");
    ASSERT_EQ(evals.size(), 1u);
    EXPECT_EQ(number_field(*evals[0], "ts"), 700.0);

    EXPECT_THROW(core::merge_traces("{\"notTraceEvents\":[]}", {}), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Round trip against real server binaries: the PR's other acceptance
// criterion — merged span count matches points evaluated.
// ---------------------------------------------------------------------------

namespace {

struct ShardProcess {
    pid_t pid = -1;
    int out_fd = -1;
    std::string endpoint;
    std::string trace_path;
};

/// Fork+exec one ehdoe-eval-server --trace and scrape its startup line for
/// the bound endpoint. The daemon writes its trace on SIGTERM.
ShardProcess spawn_shard(const std::string& trace_path) {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        const char* bin = EHDOE_EVAL_SERVER_BIN;
        ::execl(bin, bin, "--scenario", "S1", "--duration", "30", "--workers", "1",
                "--trace", trace_path.c_str(), static_cast<char*>(nullptr));
        _exit(127);
    }
    ::close(fds[1]);

    // Read the "listening on HOST:PORT ..." line (std::endl-flushed by the
    // daemon before it parks in its signal loop).
    std::string line;
    char c = 0;
    while (::read(fds[0], &c, 1) == 1 && c != '\n') line.push_back(c);
    ShardProcess shard;
    shard.pid = pid;
    shard.out_fd = fds[0];
    shard.trace_path = trace_path;
    const std::string prefix = "listening on ";
    if (line.compare(0, prefix.size(), prefix) == 0) {
        const std::size_t end = line.find(' ', prefix.size());
        shard.endpoint = line.substr(prefix.size(), end - prefix.size());
    }
    EXPECT_FALSE(shard.endpoint.empty()) << "startup line: " << line;
    return shard;
}

void stop_shard(ShardProcess& shard) {
    if (shard.pid > 0) {
        ::kill(shard.pid, SIGTERM);
        int status = 0;
        ::waitpid(shard.pid, &status, 0);
        shard.pid = -1;
    }
    if (shard.out_fd >= 0) {
        ::close(shard.out_fd);
        shard.out_fd = -1;
    }
}

}  // namespace

TEST_F(TelemetryTest, MergedTraceOfRealFarmRunMatchesPointsEvaluated) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const std::vector<Vector> points = s1_ccd_points(sc);

    exec_test::TempDir dir("telemetry-farm");
    ShardProcess shard0 = spawn_shard(dir.path() + "/shard0.json");
    ShardProcess shard1 = spawn_shard(dir.path() + "/shard1.json");
    ASSERT_FALSE(shard0.endpoint.empty());
    ASSERT_FALSE(shard1.endpoint.empty());

    const std::string client_trace = dir.path() + "/client.json";
    std::vector<doe::ResponseMap> got;
    std::size_t simulations = 0;
    {
        doe::RunnerOptions o = net_test::remote_options({shard0.endpoint, shard1.endpoint},
                                                        sc.fingerprint());
        o.trace_file = client_trace;
        doe::BatchRunner runner(core::Simulation{}, o);
        got = runner.evaluate(points);
        simulations = runner.stats().simulations;
    }
    // SIGTERM flushes each daemon's trace before exit.
    stop_shard(shard0);
    stop_shard(shard1);

    // The farm's answers are still the in-process answers.
    core::InProcessBackend reference(sc.make_simulation(), core::BackendOptions{});
    const auto base = reference.evaluate(points);
    ASSERT_EQ(got.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) EXPECT_EQ(got[i], base[i]);

    const core::TraceMergeResult merged = core::merge_trace_files(
        client_trace, {shard0.trace_path, shard1.trace_path});
    EXPECT_TRUE(merged.warnings.empty())
        << (merged.warnings.empty() ? "" : merged.warnings.front());
    EXPECT_GT(merged.client_events, 0u);
    EXPECT_GT(merged.server_events, 0u);
    EXPECT_GE(merged.batches, 1u);
    // One server eval span per point actually evaluated (dedup means
    // simulations, not raw design rows).
    EXPECT_GT(simulations, 0u);
    EXPECT_EQ(merged.eval_spans, simulations);
    EXPECT_FALSE(merged.summary.empty());

    // The merged output is a valid Chrome trace whose lanes are separated:
    // client pid 1, the two shards pid 2 and 3.
    const core::JsonValue trace = core::parse_json(merged.json);
    const core::JsonValue* events = core::json_lookup(trace, "traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, core::JsonValue::Kind::Array);
    EXPECT_EQ(events->array.size(), merged.client_events + merged.server_events);
    bool pid2 = false;
    bool pid3 = false;
    for (const core::JsonValue* e : events_named(trace, "eval")) {
        const double pid = number_field(*e, "pid");
        if (pid == 2.0) pid2 = true;
        if (pid == 3.0) pid3 = true;
    }
    EXPECT_TRUE(pid2 && pid3) << "both shards should have served points";
}
