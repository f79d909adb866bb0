// The event journal (core::telemetry::Journal + Event): every event kind
// the toolkit emits is one JSON line with the standard prologue and the
// journal's exact bytes; one Event is one trace instant and one line in
// every open journal, on one clock; journals are scoped (two live runners
// each keep theirs, runners on one file share it, an unopenable path
// throws, the descriptor is close-on-exec); forced kill/redial incidents
// land in the journal; and — the determinism contract — turning the
// journal AND the metrics ring on changes no result bit across the
// in-process, exec, remote and store-backed stacks.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/perf_gate.hpp"
#include "core/scenario.hpp"
#include "core/telemetry.hpp"
#include "core/toolkit.hpp"
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

/// Tracing and the process label are process-global; every test restores
/// the defaults so suites stay order-independent. Journals are scoped and
/// close themselves.
class EventLogTest : public ::testing::Test {
protected:
    void TearDown() override {
        core::telemetry::disable();
        core::telemetry::reset();
        core::telemetry::set_process_label("");
    }
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
    core::telemetry::set_process_label("schema-test");
    {
        core::telemetry::Journal journal(path);
        using core::telemetry::Event;
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
    }

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

    // The bytes readers grep for: keys, key order and value formats are
    // fixed; only the two clock readings vary from run to run.
    const std::string head = R"({"t_us":T,"wall_ms":W,"process":"schema-test","kind":)";
    const std::vector<std::string> want = {
        head + R"("listening","endpoint":"127.0.0.1:4217"})",
        head + R"("redial","endpoint":"127.0.0.1:4217"})",
        head + R"("rejoin","endpoint":"127.0.0.1:4217","version":7})",
        head + R"("failover_redispatch","endpoint":"127.0.0.1:4217","pending":12})",
        head + R"("exec_timeout","point":5,"timeout_seconds":1.5})",
        head + R"("exec_relaunch","point":5,"attempt":2,"exit":"status 3"})",
        head + R"("segment_quarantine","segment":"segment-000001.log","records_recovered":41})",
        // Control bytes without a short escape go out as \u00XX.
        head + R"("redial","error":"connect: \"refused\"\nafter 2 tries \\ EOF\u0001"})",
    };
    const std::regex clocks(R"re(^\{"t_us":[0-9]+,"wall_ms":[0-9]+,)re");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(std::regex_replace(lines[i], clocks, R"({"t_us":T,"wall_ms":W,)"), want[i]);
    }
}

TEST_F(EventLogTest, ClosedJournalWritesNothingAndEventsAreFreeToBuild) {
    // Emission sites construct Events unconditionally; with tracing off and
    // no journal open this must be a no-op, not a crash or a stray record.
    ASSERT_FALSE(core::telemetry::enabled());
    core::telemetry::Event("redial").field("endpoint", "127.0.0.1:1");
    EXPECT_EQ(core::telemetry::event_count(), 0u);

    exec_test::TempDir dir("eventlog-closed");
    const std::string path = dir.path() + "/events.jsonl";
    { core::telemetry::Journal journal(path); }
    core::telemetry::Event("redial").field("endpoint", "127.0.0.1:1");
    EXPECT_TRUE(journal_lines(path).empty()) << "events after the journal closed must not write";
    // The default label names the process until one is set.
    {
        core::telemetry::Journal journal(path);
        core::telemetry::Event("redial");
    }
    const std::vector<std::string> lines = journal_lines(path);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(core::json_lookup(parsed_event(lines[0]), "process")->string, "ehdoe");
}

// One Event, both sinks: the trace instant and the journal line carry the
// same kind, fields and timestamp.
TEST_F(EventLogTest, EventIsOneTraceInstantAndOneJournalLine) {
    exec_test::TempDir dir("eventlog-trace");
    const std::string path = dir.path() + "/events.jsonl";
    core::telemetry::enable();
    core::telemetry::reset();
    {
        core::telemetry::Journal journal(path);
        core::telemetry::Event("exec_relaunch").field("attempt", std::uint64_t{2});
    }
    const std::string trace_path = dir.path() + "/trace.json";
    ASSERT_TRUE(core::telemetry::write_json(trace_path));

    std::ifstream in(trace_path);
    std::stringstream body;
    body << in.rdbuf();
    const core::JsonValue trace = core::parse_json(body.str());
    std::vector<const core::JsonValue*> instants;
    for (const core::JsonValue& e : core::json_lookup(trace, "traceEvents")->array) {
        const core::JsonValue* name = core::json_lookup(e, "name");
        if (name && name->string == "exec_relaunch") instants.push_back(&e);
    }
    ASSERT_EQ(instants.size(), 1u);
    EXPECT_EQ(core::json_lookup(*instants[0], "ph")->string, "i");
    EXPECT_EQ(core::json_lookup(*instants[0], "cat")->string, "event");
    EXPECT_EQ(core::json_lookup(*instants[0], "args.attempt")->number, 2.0);

    const std::vector<std::string> lines = journal_lines(path);
    ASSERT_EQ(lines.size(), 1u);
    const core::JsonValue line = parsed_event(lines[0]);
    EXPECT_EQ(core::json_lookup(*instants[0], "ts")->number,
              core::json_lookup(line, "t_us")->number);
}

// ---------------------------------------------------------------------------
// Scoped sinks: each journal lives exactly as long as its owner.
// ---------------------------------------------------------------------------
TEST_F(EventLogTest, TwoConcurrentRunnersEachKeepTheirJournal) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    exec_test::TempDir dir("eventlog-two-runners");
    doe::RunnerOptions a_opts;
    a_opts.event_log_file = dir.path() + "/a.jsonl";
    doe::RunnerOptions b_opts;
    b_opts.event_log_file = dir.path() + "/b.jsonl";

    auto a = std::make_unique<doe::BatchRunner>(sc.make_simulation(), a_opts);
    auto b = std::make_unique<doe::BatchRunner>(sc.make_simulation(), b_opts);
    core::telemetry::Event("redial").field("endpoint", "first");
    a.reset();
    core::telemetry::Event("redial").field("endpoint", "second");
    b.reset();

    const std::vector<std::string> a_lines = journal_lines(a_opts.event_log_file);
    const std::vector<std::string> b_lines = journal_lines(b_opts.event_log_file);
    ASSERT_EQ(a_lines.size(), 1u);
    EXPECT_EQ(core::json_lookup(parsed_event(a_lines[0]), "endpoint")->string, "first");
    ASSERT_EQ(b_lines.size(), 2u);
    EXPECT_EQ(core::json_lookup(parsed_event(b_lines[0]), "endpoint")->string, "first");
    EXPECT_EQ(core::json_lookup(parsed_event(b_lines[1]), "endpoint")->string, "second");
}

// Callers that build one runner per call from the same options put two
// live runners on one file: each line once.
TEST_F(EventLogTest, TwoRunnersOnOneFileWriteEachEventOnce) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    exec_test::TempDir dir("eventlog-one-file");
    doe::RunnerOptions a_opts;
    a_opts.event_log_file = dir.path() + "/e.jsonl";
    doe::RunnerOptions b_opts;
    b_opts.event_log_file = dir.path() + "/./e.jsonl";  // another spelling, same file

    auto a = std::make_unique<doe::BatchRunner>(sc.make_simulation(), a_opts);
    auto b = std::make_unique<doe::BatchRunner>(sc.make_simulation(), b_opts);
    core::telemetry::Event("redial").field("endpoint", "both");
    a.reset();
    core::telemetry::Event("redial").field("endpoint", "b only");
    b.reset();
    core::telemetry::Event("redial").field("endpoint", "none");

    const std::vector<std::string> lines = journal_lines(a_opts.event_log_file);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(core::json_lookup(parsed_event(lines[0]), "endpoint")->string, "both");
    EXPECT_EQ(core::json_lookup(parsed_event(lines[1]), "endpoint")->string, "b only");
}

TEST_F(EventLogTest, UnopenableJournalPathThrowsNamingIt) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    exec_test::TempDir dir("eventlog-unopenable");
    const std::string bad = dir.path() + "/no/such/dir/e.jsonl";
    auto expect_names_path = [&](const std::function<void()>& construct) {
        try {
            construct();
            ADD_FAILURE() << "constructed with an unopenable journal";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(bad), std::string::npos) << e.what();
        }
    };
    doe::RunnerOptions ro;
    ro.event_log_file = bad;
    expect_names_path([&] { doe::BatchRunner runner(sc.make_simulation(), ro); });
    core::DesignFlow::Options fo;
    fo.event_log_file = bad;
    expect_names_path([&] { core::DesignFlow flow(sc.design_space(), sc.make_simulation(), fo); });
}

// Launched simulators must not inherit the journal: its descriptor is
// close-on-exec.
TEST_F(EventLogTest, JournalDescriptorIsCloseOnExec) {
    exec_test::TempDir dir("eventlog-cloexec");
    const std::string path = dir.path() + "/events.jsonl";
    core::telemetry::Journal journal(path);
    const std::filesystem::path target = std::filesystem::canonical(path);
    int found = -1;
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
        std::error_code ec;
        if (std::filesystem::read_symlink(entry.path(), ec) == target) {
            found = std::stoi(entry.path().filename().string());
        }
    }
    ASSERT_GE(found, 0) << "no descriptor open on " << target;
    const int flags = ::fcntl(found, F_GETFD);
    ASSERT_GE(flags, 0);
    EXPECT_TRUE(flags & FD_CLOEXEC);
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
    std::optional<core::telemetry::Journal> journal(std::in_place, path);
    core::telemetry::set_process_label("ehdoe-client");

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
    journal.reset();

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
