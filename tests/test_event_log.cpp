// The structured event journal (core/event_log.hpp): every event kind the
// toolkit emits parses as one JSON object with the standard prologue, the
// journal interleaves onto a merged trace timeline via its "listening"
// clock anchor (`ehdoe-trace --events`), forced kill/redial incidents land
// in it, and — the acceptance criterion — turning the journal AND the
// metrics ring on changes no result bit across the in-process, exec,
// remote and store-backed stacks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/event_log.hpp"
#include "core/perf_gate.hpp"
#include "core/scenario.hpp"
#include "core/trace_merge.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "doe/design.hpp"
#include "doe/factorial.hpp"
#include "exec_test_utils.hpp"
#include "net/remote_backend.hpp"
#include "net_test_utils.hpp"
#include "store/store_server.hpp"

using namespace ehdoe;
using ehdoe::num::Vector;

namespace {

std::vector<std::string> journal_lines(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) lines.push_back(line);
    }
    return lines;
}

/// Parse one journal line and check the standard prologue; returns the
/// parsed object (throws on malformed JSON, failing the test).
core::JsonValue parsed_event(const std::string& line) {
    const core::JsonValue obj = core::parse_json(line);
    EXPECT_EQ(obj.kind, core::JsonValue::Kind::Object) << line;
    const core::JsonValue* t_us = core::json_lookup(obj, "t_us");
    const core::JsonValue* wall_ms = core::json_lookup(obj, "wall_ms");
    const core::JsonValue* process = core::json_lookup(obj, "process");
    const core::JsonValue* kind = core::json_lookup(obj, "kind");
    EXPECT_TRUE(t_us && t_us->kind == core::JsonValue::Kind::Number) << line;
    EXPECT_TRUE(wall_ms && wall_ms->kind == core::JsonValue::Kind::Number) << line;
    EXPECT_TRUE(process && process->kind == core::JsonValue::Kind::String) << line;
    EXPECT_TRUE(kind && kind->kind == core::JsonValue::Kind::String) << line;
    return obj;
}

std::set<std::string> kinds_of(const std::vector<std::string>& lines) {
    std::set<std::string> kinds;
    for (const std::string& line : lines) {
        const core::JsonValue obj = parsed_event(line);
        const core::JsonValue* kind = core::json_lookup(obj, "kind");
        if (kind) kinds.insert(kind->string);
    }
    return kinds;
}

/// Every test closes the process-global journal so suites stay
/// order-independent.
class EventLogTest : public ::testing::Test {
protected:
    void TearDown() override { core::event_log::close(); }
};

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

void expect_identical(const std::vector<doe::ResponseMap>& got,
                      const std::vector<doe::ResponseMap>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]) << "point " << i;
}

}  // namespace

// ---------------------------------------------------------------------------
// Schema: every kind the toolkit emits is one parseable JSON object with
// the standard prologue and its documented fields.
// ---------------------------------------------------------------------------
TEST_F(EventLogTest, EveryEventKindParsesWithThePrologue) {
    exec_test::TempDir dir("eventlog-schema");
    const std::string path = dir.path() + "/events.jsonl";
    ASSERT_TRUE(core::event_log::open(path));
    ASSERT_TRUE(core::event_log::enabled());
    core::event_log::set_process_label("schema-test");

    using core::event_log::Event;
    Event("listening").field("endpoint", "127.0.0.1:4217");
    Event("redial").field("endpoint", "127.0.0.1:4217");
    Event("rejoin").field("endpoint", "127.0.0.1:4217").field("version", std::uint64_t{7});
    Event("failover_redispatch")
        .field("endpoint", "127.0.0.1:4217")
        .field("pending", std::uint64_t{12});
    Event("exec_timeout").field("point", std::uint64_t{5}).field("timeout_seconds", 1.5);
    Event("exec_relaunch")
        .field("point", std::uint64_t{5})
        .field("attempt", std::uint64_t{2})
        .field("exit", "status 3");
    Event("segment_quarantine")
        .field("segment", "segment-000001.log")
        .field("records_recovered", std::uint64_t{41});
    // Values needing escapes must not break the line's JSON.
    Event("redial").field("error", "connect: \"refused\"\nafter 2 tries \\ EOF\x01");
    core::event_log::close();

    const std::vector<std::string> lines = journal_lines(path);
    ASSERT_EQ(lines.size(), 8u);
    const std::set<std::string> kinds = kinds_of(lines);
    for (const char* kind : {"listening", "redial", "rejoin", "failover_redispatch",
                             "exec_timeout", "exec_relaunch", "segment_quarantine"}) {
        EXPECT_TRUE(kinds.count(kind)) << kind;
    }
    // Kind-specific fields survive with their types.
    const core::JsonValue rejoin = parsed_event(lines[2]);
    EXPECT_EQ(core::json_lookup(rejoin, "process")->string, "schema-test");
    EXPECT_EQ(core::json_lookup(rejoin, "version")->number, 7.0);
    const core::JsonValue timeout = parsed_event(lines[4]);
    EXPECT_EQ(core::json_lookup(timeout, "timeout_seconds")->number, 1.5);
    const core::JsonValue escaped = parsed_event(lines[7]);
    EXPECT_EQ(core::json_lookup(escaped, "error")->string,
              "connect: \"refused\"\nafter 2 tries \\ EOF\x01");
    // Control bytes without a short escape go out as \u00XX.
    EXPECT_NE(lines[7].find("EOF\\u0001\""), std::string::npos) << lines[7];
}

TEST_F(EventLogTest, ClosedJournalWritesNothingAndEventsAreFreeToBuild) {
    ASSERT_FALSE(core::event_log::enabled());
    // Emission sites construct Events unconditionally; with the journal
    // closed this must be a no-op, not a crash or a stray file.
    core::event_log::Event("redial").field("endpoint", "127.0.0.1:1");

    exec_test::TempDir dir("eventlog-closed");
    const std::string path = dir.path() + "/events.jsonl";
    ASSERT_TRUE(core::event_log::open(path));
    core::event_log::close();
    EXPECT_FALSE(core::event_log::enabled());
    core::event_log::Event("redial").field("endpoint", "127.0.0.1:1");
    EXPECT_TRUE(journal_lines(path).empty()) << "events after close() must not write";

    // An unopenable path stays disabled instead of crashing later writes.
    EXPECT_FALSE(core::event_log::open(dir.path() + "/no/such/dir/e.jsonl"));
    EXPECT_FALSE(core::event_log::enabled());
}

// ---------------------------------------------------------------------------
// Timeline interleaving: `ehdoe-trace --events` anchors a daemon journal
// through its "listening" event, exactly like a server trace file.
// ---------------------------------------------------------------------------
TEST(EventJournalMerge, DaemonJournalAnchorsOntoTheClientTimeline) {
    const std::string client = R"({"traceEvents":[
        {"name":"handshake","cat":"net","ph":"X","ts":1000,"dur":50,"pid":7,"tid":1,
         "args":{"endpoint":"127.0.0.1:9001","version":7,"offset_us":500}}
    ]})";
    // A daemon journal: the wildcard-bound "listening" anchor plus one
    // incident, both on the server's clock.
    const std::string journal =
        "{\"t_us\":100,\"wall_ms\":1726000000000,\"process\":\"ehdoe-eval-server\","
        "\"kind\":\"listening\",\"endpoint\":\"0.0.0.0:9001\"}\n"
        "{\"t_us\":700,\"wall_ms\":1726000000600,\"process\":\"ehdoe-eval-server\","
        "\"kind\":\"exec_relaunch\",\"attempt\":2}\n";

    const core::TraceMergeResult merged = core::merge_traces(client, {}, {journal});
    EXPECT_TRUE(merged.warnings.empty())
        << (merged.warnings.empty() ? "" : merged.warnings.front());
    EXPECT_EQ(merged.journal_events, 2u);

    const core::JsonValue trace = core::parse_json(merged.json);
    const core::JsonValue* events = core::json_lookup(trace, "traceEvents");
    ASSERT_NE(events, nullptr);
    bool relaunch_seen = false;
    for (const core::JsonValue& e : events->array) {
        const core::JsonValue* name = core::json_lookup(e, "name");
        if (!name || name->string != "exec_relaunch") continue;
        relaunch_seen = true;
        // Shifted by the handshake's offset_us onto the client clock, in a
        // journal lane of its own, with the kind-specific field preserved.
        EXPECT_EQ(core::json_lookup(e, "ts")->number, 1200.0);
        EXPECT_GE(core::json_lookup(e, "pid")->number, 100.0);
        EXPECT_EQ(core::json_lookup(e, "ph")->string, "i");
        EXPECT_EQ(core::json_lookup(e, "args.attempt")->number, 2.0);
    }
    EXPECT_TRUE(relaunch_seen);

    // A client journal (no "listening" kind) merges unshifted, silently.
    const std::string client_journal =
        "{\"t_us\":1500,\"wall_ms\":1726000000000,\"process\":\"ehdoe-client\","
        "\"kind\":\"redial\",\"endpoint\":\"127.0.0.1:9001\"}\n";
    const core::TraceMergeResult merged2 = core::merge_traces(client, {}, {client_journal});
    EXPECT_TRUE(merged2.warnings.empty());
    EXPECT_EQ(merged2.journal_events, 1u);
    const core::JsonValue trace2 = core::parse_json(merged2.json);
    for (const core::JsonValue& e : core::json_lookup(trace2, "traceEvents")->array) {
        const core::JsonValue* name = core::json_lookup(e, "name");
        if (name && name->string == "redial") {
            EXPECT_EQ(core::json_lookup(e, "ts")->number, 1500.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Forced incidents: kill a shard mid-batch, restart it, and the journal
// narrates the failover and the rejoin.
// ---------------------------------------------------------------------------
TEST_F(EventLogTest, KillAndRestartIncidentsLandInTheJournal) {
    const doe::DesignSpace space({{"x", 0.0, 10.0, false}, {"y", -5.0, 5.0, false}});
    core::Simulation slow = [](const Vector& nat) -> std::map<std::string, double> {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return {{"f", nat[0] + 2.0 * nat[1]}};
    };
    const std::string fp = "sim-slow";

    exec_test::TempDir dir("eventlog-incidents");
    const std::string path = dir.path() + "/events.jsonl";
    ASSERT_TRUE(core::event_log::open(path));
    core::event_log::set_process_label("ehdoe-client");

    auto s1 = net_test::start_server(slow, fp);
    auto s2 = net_test::start_server(slow, fp);
    const std::uint16_t port2 = s2->port();

    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(net_test::endpoint_of(*s1)),
                    net::parse_endpoint(net_test::endpoint_of(*s2))};
    ro.fingerprint = fp;
    ro.redial_seconds = 0.0;  // every batch is a re-dial window
    auto backend = std::make_shared<net::RemoteBackend>(ro);
    doe::BatchRunner runner(backend);

    // Batch 1: shoot shard 2 once it has served work; its pending points
    // re-dispatch to the survivor (-> failover_redispatch).
    std::thread killer([&] {
        while (s2->points_served() < 3) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        s2->stop();
    });
    const doe::RunResults r1 = runner.run_design(space, doe::full_factorial(2, 9));
    killer.join();
    EXPECT_EQ(r1.simulations, 81u);

    // Restart the shard on its old port; the next batch re-dials into it.
    s2.reset();
    s2 = net_test::start_server(slow, fp, 2, 1, port2);
    const doe::RunResults r2 = runner.run_design(space, doe::full_factorial(2, 10));
    // The grids share their 4 corners; the runner's memo covers those.
    EXPECT_EQ(r2.simulations, 96u);
    EXPECT_GE(backend->rejoins(), 1u);
    core::event_log::close();

    const std::vector<std::string> lines = journal_lines(path);
    ASSERT_FALSE(lines.empty());
    const std::set<std::string> kinds = kinds_of(lines);  // every line parses
    EXPECT_TRUE(kinds.count("failover_redispatch")) << "killed shard had pending points";
    EXPECT_TRUE(kinds.count("redial")) << "the dead endpoint was re-dialed";
    EXPECT_TRUE(kinds.count("rejoin")) << "the restarted shard rejoined";
}

// ---------------------------------------------------------------------------
// The determinism contract: journal + metrics on vs off is bitwise
// identical, per backend stack (the PR's acceptance criterion).
// ---------------------------------------------------------------------------
TEST_F(EventLogTest, JournalOnVsOffBitwiseIdenticalInProcess) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const std::vector<Vector> points = s1_ccd_points(sc);

    doe::RunnerOptions off;
    off.threads = 2;
    std::vector<doe::ResponseMap> base;
    {
        doe::BatchRunner runner(sc.make_simulation(), off);
        base = runner.evaluate(points);
    }

    exec_test::TempDir dir("eventlog-inproc");
    doe::RunnerOptions on = off;
    on.event_log_file = dir.path() + "/events.jsonl";
    std::vector<doe::ResponseMap> journaled;
    {
        doe::BatchRunner runner(sc.make_simulation(), on);
        journaled = runner.evaluate(points);
    }
    expect_identical(journaled, base);
}

TEST_F(EventLogTest, JournalOnVsOffBitwiseIdenticalExec) {
    exec_test::TempDir dir("eventlog-exec");
    const std::string recipe =
        exec_test::write_file(dir, "s1.recipe", exec_test::s1_recipe_text(30.0));
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
    on.event_log_file = dir.path() + "/events.jsonl";
    std::vector<doe::ResponseMap> journaled;
    {
        doe::BatchRunner runner(doe::Simulation{}, on);
        journaled = runner.evaluate(points);
    }
    expect_identical(journaled, base);
}

TEST_F(EventLogTest, JournalAndMetricsOnVsOffBitwiseIdenticalRemote) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const std::vector<Vector> points = s1_ccd_points(sc);

    auto plain = net_test::start_server(sc.make_simulation(), sc.fingerprint());
    std::vector<doe::ResponseMap> base;
    {
        doe::BatchRunner runner(
            core::Simulation{},
            net_test::remote_options({net_test::endpoint_of(*plain)}, sc.fingerprint()));
        base = runner.evaluate(points);
    }
    plain->stop();

    // The observed farm: metrics ring sampling on the shard, journal on the
    // client — the full health plane.
    net::EvalServerOptions o;
    o.workers = 2;
    o.fingerprint = sc.fingerprint();
    o.metrics_interval_seconds = 0.05;
    net::EvalServer observed(sc.make_simulation(), o);
    observed.start();

    exec_test::TempDir dir("eventlog-remote");
    std::vector<doe::ResponseMap> journaled;
    {
        doe::RunnerOptions ro = net_test::remote_options(
            {"127.0.0.1:" + std::to_string(observed.port())}, sc.fingerprint());
        ro.event_log_file = dir.path() + "/events.jsonl";
        doe::BatchRunner runner(core::Simulation{}, ro);
        journaled = runner.evaluate(points);
    }
    observed.stop();
    expect_identical(journaled, base);
}

TEST_F(EventLogTest, JournalAndMetricsOnVsOffBitwiseIdenticalStore) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const std::vector<Vector> points = s1_ccd_points(sc);

    doe::RunnerOptions off;
    off.threads = 2;
    std::vector<doe::ResponseMap> base;
    {
        doe::BatchRunner runner(sc.make_simulation(), off);
        base = runner.evaluate(points);
    }

    exec_test::TempDir dir("eventlog-store");
    store::StoreServerOptions so;
    so.dir = dir.path() + "/store";
    so.verbose = false;
    so.metrics_interval_seconds = 0.05;
    store::StoreServer server(so);
    server.start();

    doe::RunnerOptions on = off;
    on.cache_fingerprint = sc.fingerprint();
    on.store_endpoint = "127.0.0.1:" + std::to_string(server.port());
    on.event_log_file = dir.path() + "/events.jsonl";
    // Cold store: simulate and publish.
    {
        doe::BatchRunner runner(sc.make_simulation(), on);
        expect_identical(runner.evaluate(points), base);
    }
    // Warm store: every response served from the store, still bitwise.
    {
        doe::BatchRunner runner(sc.make_simulation(), on);
        expect_identical(runner.evaluate(points), base);
        EXPECT_EQ(runner.stats().simulations, 0u);
    }
    server.stop();
}
