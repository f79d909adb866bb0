// The farm client end to end: the ehdoe-farm binary run against
// in-process daemons (an eval-server and a store server) — each view's
// output and exit status, the window a view takes between two of its
// polls, usage errors, and the export view's serve mode with an idle
// client connected — plus the window function on hand-built polls, the
// eval-server daemon's strict --duration and --events handling, and how
// both daemons stop on SIGTERM.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/perf_gate.hpp"
#include "doe/batch_runner.hpp"
#include "doe/factorial.hpp"
#include "farm_window.hpp"
#include "net/eval_server.hpp"
#include "net_test_utils.hpp"
#include "store/store_server.hpp"

#ifndef EHDOE_FARM_BIN
#error "CMake must define EHDOE_FARM_BIN (the ehdoe-farm binary's path)"
#endif
#ifndef EHDOE_EVAL_SERVER_BIN
#error "CMake must define EHDOE_EVAL_SERVER_BIN (the eval-server's path)"
#endif
#ifndef EHDOE_STORE_SERVER_BIN
#error "CMake must define EHDOE_STORE_SERVER_BIN (the store-server's path)"
#endif

extern char** environ;

using namespace ehdoe;
using namespace ehdoe::net_test;
using ehdoe::num::Vector;

namespace {

const doe::DesignSpace kSpace({{"x", 0.0, 10.0, false}, {"y", -5.0, 5.0, false}});

core::Simulation identity_sim() {
    return [](const Vector& nat) -> std::map<std::string, double> {
        return {{"f", nat[0]}};
    };
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Start `argv` with stdout and stderr sent to files. posix_spawn, not
/// fork: this process runs server threads, and a forked child that runs
/// any code before exec can block forever on a lock one of them held.
pid_t spawn(const std::vector<std::string>& argv, const std::string& out_path,
            const std::string& err_path) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, err_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    EXPECT_EQ(rc, 0) << "cannot spawn " << argv[0];
    return rc == 0 ? pid : -1;
}

/// Exit status of `pid`, killing it after `timeout`; -1 on a hang or a
/// death by signal.
int wait_exit(pid_t pid, std::chrono::seconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            ADD_FAILURE() << "pid " << pid << " still running after " << timeout.count() << " s";
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

struct Outcome {
    int exit = -1;
    std::string out;
    std::string err;
};

/// A scratch directory per test, and runs of binaries whose output lands
/// in it.
class CliTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (std::filesystem::temp_directory_path() /
                ("ehdoe-farm-cli-" + std::to_string(::getpid())))
                   .string();
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /// Run `argv` to completion.
    Outcome run(const std::vector<std::string>& argv) {
        const std::string out = dir_ + "/run.out";
        const std::string err = dir_ + "/run.err";
        Outcome r;
        const pid_t pid = spawn(argv, out, err);
        if (pid < 0) return r;
        r.exit = wait_exit(pid, std::chrono::seconds(30));
        r.out = read_file(out);
        r.err = read_file(err);
        return r;
    }

    std::string dir_;
};

/// One eval shard and one store after a cold and a warm run of a 3x3
/// design.
class FarmCli : public CliTest {
protected:
    void SetUp() override {
        CliTest::SetUp();
        eval_ = start_server(identity_sim(), "sim-id");
        store::StoreServerOptions so;
        so.dir = dir_ + "/store";
        so.verbose = false;
        store_ = std::make_unique<store::StoreServer>(so);
        store_->start();
        eval_endpoint_ = endpoint_of(*eval_);
        store_endpoint_ = "127.0.0.1:" + std::to_string(store_->port());

        doe::RunnerOptions o = remote_options({eval_endpoint_}, "sim-id");
        o.store_endpoint = store_endpoint_;
        // Cold: nine store misses, nine points served and published.
        ASSERT_EQ(doe::BatchRunner(identity_sim(), o)
                      .run_design(kSpace, doe::full_factorial(2, 3))
                      .simulations,
                  9u);
        // Warm: a fresh runner finds all nine in the store.
        ASSERT_EQ(doe::BatchRunner(identity_sim(), o)
                      .run_design(kSpace, doe::full_factorial(2, 3))
                      .simulations,
                  0u);
    }

    void TearDown() override {
        store_->stop();
        eval_->stop();
        CliTest::TearDown();
    }

    /// Run `ehdoe-farm args...` to completion.
    Outcome farm(const std::vector<std::string>& args) {
        std::vector<std::string> argv{EHDOE_FARM_BIN};
        argv.insert(argv.end(), args.begin(), args.end());
        return run(argv);
    }

    /// Start `ehdoe-farm export --port 0` over the fixture's daemons: its
    /// pid, and the port from its "serving on" line (0 when none came).
    std::pair<pid_t, std::uint16_t> serve_export() {
        const std::string out = dir_ + "/serve.out";
        const pid_t pid = spawn({EHDOE_FARM_BIN, "export", eval_endpoint_, "--store",
                                 store_endpoint_, "--port", "0"},
                                out, dir_ + "/serve.err");
        std::uint16_t port = 0;
        const std::string prefix = "serving on 127.0.0.1:";
        for (int i = 0; pid > 0 && i < 1000 && port == 0; ++i) {
            const std::string text = read_file(out);
            if (text.rfind(prefix, 0) == 0 && text.find('\n') != std::string::npos)
                port = static_cast<std::uint16_t>(std::stoi(text.substr(prefix.size())));
            else
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return {pid, port};
    }

    std::unique_ptr<net::EvalServer> eval_;
    std::unique_ptr<store::StoreServer> store_;
    std::string eval_endpoint_;
    std::string store_endpoint_;
};

using EvalServerCli = CliTest;
using DaemonCli = CliTest;

/// A loopback port nothing listens on.
std::string dead_endpoint() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ::close(fd);
    return "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
}

/// One HTTP GET on loopback `port`: the reply up to the server's close, or
/// what arrived by `deadline`.
std::string http_get(std::uint16_t port, std::chrono::steady_clock::time_point deadline) {
    const int fd = raw_connect(port);
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    std::string reply;
    char buf[4096];
    for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - std::chrono::steady_clock::now())
                              .count();
        pollfd pfd{fd, POLLIN, 0};
        if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) != 1) break;
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
}

std::vector<std::string> keys_of(const core::JsonValue& object) {
    std::vector<std::string> keys;
    for (const auto& member : object.object) keys.push_back(member.first);
    return keys;
}

/// The exposition without the samples every poll changes.
std::string stable_lines(const std::string& exposition) {
    std::istringstream in(exposition);
    std::string out;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("ehdoe_eval_uptime_seconds{", 0) == 0 ||
            line.rfind("ehdoe_store_uptime_seconds{", 0) == 0 ||
            line.rfind("ehdoe_eval_connections_total{", 0) == 0)
            continue;
        out += line + "\n";
    }
    return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// The window function on hand-built polls: no daemon, no socket.
// ---------------------------------------------------------------------------
namespace {

using Histogram = core::telemetry::LatencyHistogram;

/// A shard's poll: `served` points served, 2 failed, and a histogram of
/// 100 samples in bucket 10 and 2 in bucket 20 plus `extra`.
net::ShardStats shard_poll(double uptime, std::uint64_t served,
                           std::vector<std::pair<std::uint64_t, std::uint64_t>> extra = {}) {
    net::ShardStats s;
    s.uptime_seconds = uptime;
    s.points_served = served;
    s.points_failed = 2;
    s.handshakes_rejected = 1;
    s.connections_accepted = 5;
    s.latency_buckets = {{10, 100}, {20, 2}};
    s.latency_buckets.insert(s.latency_buckets.end(), extra.begin(), extra.end());
    return s;
}

net::StoreStats store_poll(double uptime, std::uint64_t gets, std::uint64_t hits) {
    net::StoreStats s;
    s.uptime_seconds = uptime;
    s.gets_served = gets;
    s.get_hits = hits;
    s.puts_received = 9;
    s.records_appended = 9;
    s.connections_accepted = 3;
    return s;
}

}  // namespace

TEST(FarmWindow, TwoPollsGiveTheRatePercentilesAndHitRateOfTheirDifference) {
    // 40 points in 4 s: 39 in bucket 30 and one in bucket 40, on top of the
    // first poll's 102 samples, which the window must not see.
    const net::ShardStats before = shard_poll(10.0, 100);
    const net::ShardStats after = shard_poll(14.0, 140, {{30, 39}, {40, 1}});
    const std::optional<tools::Window> w = tools::window(&before, &after);
    ASSERT_TRUE(w);
    EXPECT_EQ(w->rate, 10.0);
    ASSERT_TRUE(w->p50_us && w->p99_us);
    EXPECT_EQ(*w->p50_us, static_cast<double>(Histogram::bucket_floor(30)));
    EXPECT_EQ(*w->p99_us, static_cast<double>(Histogram::bucket_floor(40)));
    EXPECT_FALSE(w->hit_rate);

    // An idle window has a rate of 0 and no percentiles.
    net::ShardStats later = after;
    later.uptime_seconds = 16.0;
    const std::optional<tools::Window> quiet = tools::window(&after, &later);
    ASSERT_TRUE(quiet);
    EXPECT_EQ(quiet->rate, 0.0);
    EXPECT_FALSE(quiet->p50_us || quiet->p99_us);

    // A store: 8 hits in 10 gets; lifetime would read 17/28.
    const net::StoreStats s0 = store_poll(5.0, 18, 9);
    const net::StoreStats s1 = store_poll(7.0, 28, 17);
    const std::optional<tools::Window> sw = tools::window(&s0, &s1);
    ASSERT_TRUE(sw);
    ASSERT_TRUE(sw->hit_rate);
    EXPECT_EQ(*sw->hit_rate, 0.8);
    const net::StoreStats s2 = store_poll(9.0, 28, 17);
    const std::optional<tools::Window> no_gets = tools::window(&s1, &s2);
    ASSERT_TRUE(no_gets);
    EXPECT_FALSE(no_gets->hit_rate);
}

TEST(FarmWindow, NoWindowWithoutBothPollsOrAcrossARestart) {
    const net::ShardStats before = shard_poll(10.0, 100);
    const net::ShardStats after = shard_poll(14.0, 140, {{30, 40}});
    ASSERT_TRUE(tools::window(&before, &after));
    EXPECT_FALSE(tools::window(nullptr, &after)) << "a first poll";
    EXPECT_FALSE(tools::window(&before, nullptr)) << "a poll of a down endpoint";
    EXPECT_FALSE(tools::window(&after, &after)) << "the uptime must advance";

    // A restart: a shorter uptime, or a counter that went down.
    const net::ShardStats younger = shard_poll(3.0, 140, {{30, 40}});
    EXPECT_FALSE(tools::window(&before, &younger));
    net::ShardStats failed_less = after;
    failed_less.points_failed = 1;
    EXPECT_FALSE(tools::window(&before, &failed_less));
    const net::ShardStats served_less = shard_poll(14.0, 99);
    EXPECT_FALSE(tools::window(&before, &served_less));
    // Every bucket counts: bucket 10 went down while the total rose.
    net::ShardStats moved = after;
    moved.latency_buckets = {{11, 100}, {20, 2}, {30, 40}};
    EXPECT_FALSE(tools::window(&before, &moved));
    // A bucket the telemetry histogram cannot hold is no window either.
    net::ShardStats garbled = after;
    garbled.latency_buckets.push_back({Histogram::kBuckets, 1});
    EXPECT_FALSE(tools::window(&before, &garbled));

    const net::StoreStats s0 = store_poll(5.0, 18, 9);
    const net::StoreStats restarted = store_poll(1.0, 28, 17);
    const net::StoreStats hits_less = store_poll(7.0, 28, 8);
    EXPECT_FALSE(tools::window(&s0, &restarted));
    EXPECT_FALSE(tools::window(&s0, &hits_less));
    EXPECT_FALSE(tools::window(static_cast<const net::StoreStats*>(nullptr), &s0));
}

TEST_F(FarmCli, StatsJsonCarriesTheReadmeSchemaAndAllUp) {
    const Outcome r = farm({"stats", "--json", "--store", store_endpoint_, eval_endpoint_});
    ASSERT_EQ(r.exit, 0) << r.err;
    const core::JsonValue d = core::parse_json(r.out);
    EXPECT_EQ(keys_of(d), (std::vector<std::string>{"poll", "shards", "stores", "all_up"}));
    EXPECT_TRUE(core::json_lookup(d, "all_up")->boolean);

    const core::JsonValue& shard = *core::json_lookup(d, "shards[0]");
    EXPECT_EQ(keys_of(shard),
              (std::vector<std::string>{"endpoint", "up", "served", "failed", "rejects",
                                        "respawns", "timeouts", "in_flight", "connections",
                                        "uptime_seconds", "straggler", "latency_p50_us",
                                        "latency_p95_us", "latency_p99_us", "latency_buckets"}));
    EXPECT_EQ(shard.find("endpoint")->string, eval_endpoint_);
    EXPECT_EQ(shard.find("served")->number, 9.0);
    EXPECT_FALSE(shard.find("straggler")->boolean) << "one shard has no farm to straggle behind";

    const core::JsonValue& store = *core::json_lookup(d, "stores[0]");
    EXPECT_EQ(keys_of(store),
              (std::vector<std::string>{"endpoint", "up", "keys", "segments", "quarantined",
                                        "gets_served", "get_hits", "hit_rate", "puts_received",
                                        "records_appended", "uptime_seconds"}));
    EXPECT_EQ(store.find("keys")->number, 9.0);
    EXPECT_EQ(store.find("gets_served")->number, 18.0);
    EXPECT_EQ(store.find("hit_rate")->number, 0.5);
}

// One poll has no window, so each shard's signal is its lifetime p99.
TEST_F(FarmCli, StatsFlagsTheShardWhoseP99ExceedsTwiceTheFarmMedian) {
    auto fast = start_server(identity_sim(), "sim-id");
    auto slow = start_server(
        [](const Vector& nat) -> std::map<std::string, double> {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return {{"f", nat[0]}};
        },
        "sim-id");
    // Nine points over three shards: three each.
    doe::BatchRunner(identity_sim(),
                     remote_options({eval_endpoint_, endpoint_of(*fast), endpoint_of(*slow)},
                                    "sim-id"))
        .run_design(kSpace, doe::full_factorial(2, 3));

    const Outcome r =
        farm({"stats", "--json", eval_endpoint_, endpoint_of(*fast), endpoint_of(*slow)});
    ASSERT_EQ(r.exit, 0) << r.err;
    const core::JsonValue d = core::parse_json(r.out);
    EXPECT_FALSE(core::json_lookup(d, "shards[0].straggler")->boolean) << r.out;
    EXPECT_FALSE(core::json_lookup(d, "shards[1].straggler")->boolean) << r.out;
    EXPECT_TRUE(core::json_lookup(d, "shards[2].straggler")->boolean) << r.out;
    fast->stop();
    slow->stop();
}

TEST_F(FarmCli, StatsFlagsTheSlowerOfTwoShards) {
    // Two shards: each is compared with the other alone, so the slow one
    // straggles whatever the fast one reads, 0 us included.
    auto fast = start_server(identity_sim(), "sim-id");
    auto slow = start_server(
        [](const Vector& nat) -> std::map<std::string, double> {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return {{"f", nat[0]}};
        },
        "sim-id");
    // Four points over two shards: two each.
    doe::BatchRunner(identity_sim(),
                     remote_options({endpoint_of(*fast), endpoint_of(*slow)}, "sim-id"))
        .run_design(kSpace, doe::full_factorial(2, 2));

    const Outcome r = farm({"stats", "--json", endpoint_of(*fast), endpoint_of(*slow)});
    ASSERT_EQ(r.exit, 0) << r.err;
    const core::JsonValue d = core::parse_json(r.out);
    EXPECT_FALSE(core::json_lookup(d, "shards[0].straggler")->boolean) << r.out;
    EXPECT_TRUE(core::json_lookup(d, "shards[1].straggler")->boolean) << r.out;
    fast->stop();
    slow->stop();
}

TEST_F(FarmCli, StatsMarksADeadEndpointDownAndExitsOne) {
    const std::string dead = dead_endpoint();
    const Outcome r = farm({"stats", "--json", eval_endpoint_, dead});
    EXPECT_EQ(r.exit, 1);
    const core::JsonValue d = core::parse_json(r.out);
    EXPECT_TRUE(core::json_lookup(d, "shards[0].up")->boolean);
    EXPECT_FALSE(core::json_lookup(d, "shards[1].up")->boolean);
    EXPECT_FALSE(core::json_lookup(d, "shards[1].error")->string.empty());
    EXPECT_FALSE(core::json_lookup(d, "all_up")->boolean);
    // Diagnostics on stderr, one line for the one endpoint that is down.
    EXPECT_EQ(r.err.rfind("[ehdoe-farm] shard " + dead + " down: ", 0), 0u) << r.err;
    EXPECT_EQ(std::count(r.err.begin(), r.err.end(), '\n'), 1) << r.err;
}

TEST_F(FarmCli, ExportPrintsTheFamiliesAndTheTextfileMatches) {
    const Outcome r = farm({"export", eval_endpoint_, "--store", store_endpoint_});
    ASSERT_EQ(r.exit, 0) << r.err;
    for (const std::string& sample :
         {"ehdoe_up{role=\"eval\",endpoint=\"" + eval_endpoint_ + "\"} 1",
          "ehdoe_up{role=\"store\",endpoint=\"" + store_endpoint_ + "\"} 1",
          "ehdoe_eval_points_served_total{endpoint=\"" + eval_endpoint_ + "\"} 9",
          "ehdoe_store_keys{endpoint=\"" + store_endpoint_ + "\"} 9",
          "ehdoe_store_hit_rate{endpoint=\"" + store_endpoint_ + "\"} 0.5"}) {
        EXPECT_NE(r.out.find(sample + "\n"), std::string::npos) << sample << "\n" << r.out;
    }
    EXPECT_EQ(r.out.find("ehdoe_eval_window_p99_us{"), std::string::npos)
        << "one poll has no window:\n"
        << r.out;

    const std::string textfile = dir_ + "/ehdoe.prom";
    const Outcome w =
        farm({"export", eval_endpoint_, "--store", store_endpoint_, "--textfile", textfile});
    ASSERT_EQ(w.exit, 0) << w.err;
    EXPECT_TRUE(w.out.empty());
    EXPECT_EQ(stable_lines(read_file(textfile)), stable_lines(r.out));
}

TEST_F(FarmCli, TopPrintsOneFrameWithTheShardAndStoreRows) {
    const Outcome r = farm({"top", "--count", "1", "--store", store_endpoint_, eval_endpoint_});
    ASSERT_EQ(r.exit, 0) << r.err;
    EXPECT_EQ(r.out.rfind("== ehdoe-farm top  poll 0  (1 shards) ==\n", 0), 0u)
        << "no screen clear when stdout is not a terminal:\n"
        << r.out;
    EXPECT_NE(r.out.find("\n" + eval_endpoint_ + "  up "), std::string::npos) << r.out;
    // Store: lifetime hit rate 9/18; one poll has no window, so no recent
    // hit rate.
    EXPECT_NE(r.out.find("50.0%    -"), std::string::npos) << r.out;
}

// The second frame shows the window since the first. Nothing was served in
// between, so its rate is 0.0 where the first frame's is the lifetime
// average, marked '~'.
TEST_F(FarmCli, TopSecondFrameShowsTheWindowSinceTheFirst) {
    const Outcome r = farm({"top", "--count", "2", "--interval", "0.05", eval_endpoint_});
    ASSERT_EQ(r.exit, 0) << r.err;
    const std::size_t second = r.out.find("== ehdoe-farm top  poll 1  (1 shards) ==\n");
    ASSERT_NE(second, std::string::npos) << r.out;
    auto rate_of = [this](const std::string& frame) {
        const std::size_t row = frame.find("\n" + eval_endpoint_ + "  up ");
        if (row == std::string::npos) return std::string();
        std::istringstream fields(frame.substr(row));
        std::string label, state, rate;
        fields >> label >> state >> rate;
        return rate;
    };
    EXPECT_EQ(rate_of(r.out.substr(0, second)).rfind("~", 0), 0u) << r.out;
    EXPECT_EQ(rate_of(r.out.substr(second)), "0.0") << r.out;
}

TEST_F(FarmCli, UsageErrorsExitTwo) {
    const std::string textfile = dir_ + "/never.prom";
    for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
             {},
             {"frobnicate", eval_endpoint_},
             {"stats"},
             {"stats", "--textfile", textfile, eval_endpoint_},
             {"stats", "--interval", "5x", eval_endpoint_},
             // Past 1e9 s, the wait between polls cannot be counted.
             {"stats", "--json", "--interval", "1e300", "--count", "1", eval_endpoint_},
             {"top", "--interval", "1.000001e9", "--count", "1", eval_endpoint_},
             {"top", "--json", eval_endpoint_},
             {"export", "--count", "1", eval_endpoint_},
             {"export", "--port", "0", "--textfile", textfile, eval_endpoint_},
             {"stats", "no-port-here"},
             {"stats", "--store", "no-port-here"}}) {
        const Outcome r = farm(args);
        std::string line;
        for (const std::string& a : args) line += " " + a;
        EXPECT_EQ(r.exit, 2) << "ehdoe-farm" << line;
        EXPECT_TRUE(r.out.empty()) << "ehdoe-farm" << line;
    }
    EXPECT_FALSE(std::filesystem::exists(textfile));
}

// Serve mode answers one connection at a time: a client that connects and
// never sends a request must not stall every later scrape.
TEST_F(FarmCli, ExportServesAScrapeWhileAnIdleConnectionStaysOpen) {
    const auto [pid, port] = serve_export();
    ASSERT_NE(port, 0);
    const int idle = raw_connect(port);
    const auto start = std::chrono::steady_clock::now();
    const std::string reply = http_get(port, start + std::chrono::seconds(5));
    const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    ::close(idle);
    ::kill(pid, SIGTERM);
    EXPECT_EQ(wait_exit(pid, std::chrono::seconds(10)), 0);

    EXPECT_LT(elapsed_ms, 5000) << "the scrape waited behind the idle client";
    EXPECT_EQ(reply.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << reply;
    EXPECT_NE(reply.find("ehdoe_eval_points_served_total{endpoint=\"" + eval_endpoint_ +
                         "\"} 9\n"),
              std::string::npos)
        << reply;
}

// Serve mode windows each scrape against the previous one: the first has
// no windowed gauge, the second the rate and p99 of the four points served
// in between.
TEST_F(FarmCli, ExportServeModeWindowsEachScrapeAgainstThePreviousOne) {
    const auto [pid, port] = serve_export();
    ASSERT_NE(port, 0);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    const std::string first = http_get(port, deadline);
    ASSERT_EQ(doe::BatchRunner(identity_sim(), remote_options({eval_endpoint_}, "sim-id"))
                  .run_design(kSpace, doe::full_factorial(2, 2))
                  .simulations,
              4u);
    const std::string second = http_get(port, deadline);
    ::kill(pid, SIGTERM);
    EXPECT_EQ(wait_exit(pid, std::chrono::seconds(10)), 0);

    const std::string label = "{endpoint=\"" + eval_endpoint_ + "\"} ";
    const std::string rate = "\nehdoe_eval_points_per_second" + label;
    const std::string p99 = "\nehdoe_eval_window_p99_us" + label;
    EXPECT_EQ(first.find(rate), std::string::npos) << first;
    EXPECT_EQ(first.find(p99), std::string::npos) << first;
    const std::size_t at = second.find(rate);
    ASSERT_NE(at, std::string::npos) << second;
    EXPECT_GT(std::stod(second.substr(at + rate.size())), 0.0) << second;
    EXPECT_NE(second.find(p99), std::string::npos) << second;
    EXPECT_NE(second.find("ehdoe_eval_points_served_total" + label + "13\n"), std::string::npos)
        << second;
}

// The daemon refuses a --duration it cannot read instead of serving a
// silently different scenario, and one past node::kMaxDurationSeconds
// instead of serving points that never finish; the values the benchmark
// passes still work.
TEST_F(EvalServerCli, DurationMustBeAPositiveNumber) {
    for (const char* bad : {"60x", "banana", "0", "-5", "inf", "nan", "", "1e300", "1000000.1"}) {
        const Outcome r = run({EHDOE_EVAL_SERVER_BIN, "--duration", bad, "--print-fingerprint"});
        EXPECT_EQ(r.exit, 2) << "--duration '" << bad << "'";
        EXPECT_NE(r.err.find("--duration must be a positive number of seconds, at most 1e6, "
                             "got '" +
                             std::string(bad) + "'"),
                  std::string::npos)
            << r.err;
    }
    for (const char* good : {"60", "10", "2.5", "1e6"}) {
        const Outcome r = run({EHDOE_EVAL_SERVER_BIN, "--duration", good, "--print-fingerprint"});
        EXPECT_EQ(r.exit, 0) << "--duration " << good << ": " << r.err;
        char expected[64];
        std::snprintf(expected, sizeof expected, "/duration=%.6f/", std::stod(good));
        EXPECT_NE(r.out.find(expected), std::string::npos) << r.out;
    }
}

// Neither daemon samples its own counters: --metrics-interval is an
// unknown flag, a usage error like any other.
TEST_F(DaemonCli, MetricsIntervalIsAUsageError) {
    const std::vector<std::vector<std::string>> daemons{
        {EHDOE_EVAL_SERVER_BIN, "--port", "0"},
        {EHDOE_STORE_SERVER_BIN, "--port", "0", "--dir", dir_ + "/store"}};
    for (const std::vector<std::string>& daemon : daemons) {
        std::vector<std::string> argv = daemon;
        argv.insert(argv.end(), {"--metrics-interval", "0.2"});
        const Outcome r = run(argv);
        EXPECT_EQ(r.exit, 2) << daemon[0];
        EXPECT_NE(r.err.find("usage: "), std::string::npos) << r.err;
        EXPECT_EQ(r.out.find("listening on"), std::string::npos) << r.out;
    }
}

// A journal the daemon cannot open is a usage error, not a silent no-op.
TEST_F(EvalServerCli, UnopenableEventsFileExitsTwo) {
    const std::string bad = dir_ + "/no/such/dir/e.jsonl";
    const Outcome r = run({EHDOE_EVAL_SERVER_BIN, "--port", "0", "--events", bad});
    EXPECT_EQ(r.exit, 2);
    EXPECT_NE(r.err.find("cannot open --events file '" + bad + "'"), std::string::npos) << r.err;
}

// Each daemon blocks SIGINT and SIGTERM before it starts a thread and takes
// them with sigwait after its "listening on" line. So a SIGTERM sent the
// moment the line appears stops it cleanly: exit 0 after its "shutting
// down:" line, never the signal's default action.
TEST_F(DaemonCli, SigtermRightAfterTheListeningLineStopsEitherDaemonCleanly) {
    const std::vector<std::vector<std::string>> daemons{
        {EHDOE_EVAL_SERVER_BIN, "--port", "0", "--workers", "1"},
        {EHDOE_STORE_SERVER_BIN, "--port", "0", "--dir", dir_ + "/store"}};
    for (const std::vector<std::string>& argv : daemons) {
        for (int run = 0; run < 20; ++run) {
            int out[2];
            ASSERT_EQ(::pipe2(out, O_CLOEXEC), 0);
            posix_spawn_file_actions_t actions;
            posix_spawn_file_actions_init(&actions);
            posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
            std::vector<char*> args;
            for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
            args.push_back(nullptr);
            pid_t pid = -1;
            const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
            posix_spawn_file_actions_destroy(&actions);
            ::close(out[1]);
            ASSERT_EQ(rc, 0) << "cannot spawn " << argv[0];

            std::string output;
            char c = 0;
            while (::read(out[0], &c, 1) == 1) {
                output.push_back(c);
                if (c == '\n') break;
            }
            ::kill(pid, SIGTERM);
            while (::read(out[0], &c, 1) == 1) output.push_back(c);
            ::close(out[0]);
            EXPECT_EQ(wait_exit(pid, std::chrono::seconds(10)), 0) << argv[0] << " run " << run;
            EXPECT_EQ(output.rfind("listening on ", 0), 0u) << output;
            EXPECT_NE(output.find("\nshutting down: "), std::string::npos)
                << argv[0] << " run " << run << ": " << output;
        }
    }
}
