// The farm client end to end: the ehdoe-farm binary run against
// in-process daemons (an eval-server and a store server, both sampling
// their metrics rings by hand so every number is deterministic) — each
// view's output and exit status, usage errors, and the export view's
// serve mode with an idle client connected — plus the eval-server
// daemon's strict --duration and --events handling, and how both daemons
// stop on SIGTERM.
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

/// A loopback eval-server whose metrics ring the test samples by hand (the
/// huge interval parks its sampler thread).
std::unique_ptr<net::EvalServer> start_ringed_server(core::Simulation sim) {
    net::EvalServerOptions o;
    o.workers = 2;
    o.fingerprint = "sim-id";
    o.metrics_interval_seconds = 3600.0;
    auto server = std::make_unique<net::EvalServer>(std::move(sim), o);
    server->start();
    return server;
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

/// One eval shard and one store, each with a three-row metrics ring, after
/// a cold and a warm run of a 3x3 design.
class FarmCli : public CliTest {
protected:
    void SetUp() override {
        CliTest::SetUp();
        eval_ = start_ringed_server(identity_sim());
        store::StoreServerOptions so;
        so.dir = dir_ + "/store";
        so.verbose = false;
        so.metrics_interval_seconds = 3600.0;
        store_ = std::make_unique<store::StoreServer>(so);
        store_->start();
        eval_endpoint_ = endpoint_of(*eval_);
        store_endpoint_ = "127.0.0.1:" + std::to_string(store_->port());

        doe::RunnerOptions o = remote_options({eval_endpoint_}, "sim-id");
        o.store_endpoint = store_endpoint_;
        sample();  // row 0: nothing yet
        // Cold: nine store misses, nine points served and published.
        ASSERT_EQ(doe::BatchRunner(identity_sim(), o)
                      .run_design(kSpace, doe::full_factorial(2, 3))
                      .simulations,
                  9u);
        sample();  // row 1
        // Warm: a fresh runner finds all nine in the store.
        ASSERT_EQ(doe::BatchRunner(identity_sim(), o)
                      .run_design(kSpace, doe::full_factorial(2, 3))
                      .simulations,
                  0u);
        sample();  // row 2
    }

    void TearDown() override {
        store_->stop();
        eval_->stop();
        CliTest::TearDown();
    }

    void sample() {
        eval_->sample_metrics_now();
        store_->sample_metrics_now();
    }

    /// Run `ehdoe-farm args...` to completion.
    Outcome farm(const std::vector<std::string>& args) {
        std::vector<std::string> argv{EHDOE_FARM_BIN};
        argv.insert(argv.end(), args.begin(), args.end());
        return run(argv);
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

TEST_F(FarmCli, StatsFlagsTheShardWhoseWindowedP99ExceedsTwiceTheFarmMedian) {
    auto fast = start_ringed_server(identity_sim());
    auto slow = start_ringed_server([](const Vector& nat) -> std::map<std::string, double> {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return {{"f", nat[0]}};
    });
    fast->sample_metrics_now();
    slow->sample_metrics_now();
    // Nine points over three shards: three each.
    doe::BatchRunner(identity_sim(),
                     remote_options({eval_endpoint_, endpoint_of(*fast), endpoint_of(*slow)},
                                    "sim-id"))
        .run_design(kSpace, doe::full_factorial(2, 3));
    eval_->sample_metrics_now();
    fast->sample_metrics_now();
    slow->sample_metrics_now();

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
    auto fast = start_ringed_server(identity_sim());
    auto slow = start_ringed_server([](const Vector& nat) -> std::map<std::string, double> {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return {{"f", nat[0]}};
    });
    fast->sample_metrics_now();
    slow->sample_metrics_now();
    // Four points over two shards: two each.
    doe::BatchRunner(identity_sim(),
                     remote_options({endpoint_of(*fast), endpoint_of(*slow)}, "sim-id"))
        .run_design(kSpace, doe::full_factorial(2, 2));
    fast->sample_metrics_now();
    slow->sample_metrics_now();

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
    EXPECT_NE(r.out.find("ehdoe_eval_window_p99_us{"), std::string::npos) << r.out;

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
    // Store: lifetime hit rate 9/18, last interval 9/9.
    EXPECT_NE(r.out.find("50.0%    100.0%"), std::string::npos) << r.out;
}

TEST_F(FarmCli, UsageErrorsExitTwo) {
    const std::string textfile = dir_ + "/never.prom";
    for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
             {},
             {"frobnicate", eval_endpoint_},
             {"stats"},
             {"stats", "--textfile", textfile, eval_endpoint_},
             {"stats", "--interval", "5x", eval_endpoint_},
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
    const std::string out = dir_ + "/serve.out";
    const pid_t pid = spawn({EHDOE_FARM_BIN, "export", eval_endpoint_, "--store",
                             store_endpoint_, "--port", "0"},
                            out, dir_ + "/serve.err");
    ASSERT_GT(pid, 0);
    std::uint16_t port = 0;
    const std::string prefix = "serving on 127.0.0.1:";
    for (int i = 0; i < 1000 && port == 0; ++i) {
        const std::string text = read_file(out);
        if (text.rfind(prefix, 0) == 0 && text.find('\n') != std::string::npos)
            port = static_cast<std::uint16_t>(std::stoi(text.substr(prefix.size())));
        else
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_NE(port, 0) << read_file(out);

    const int idle = raw_connect(port);
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::seconds(5);
    const int scrape = raw_connect(port);
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(scrape, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    std::string reply;
    char buf[4096];
    for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - std::chrono::steady_clock::now())
                              .count();
        pollfd pfd{scrape, POLLIN, 0};
        if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) != 1) break;
        const ssize_t n = ::recv(scrape, buf, sizeof buf, 0);
        if (n <= 0) break;
        reply.append(buf, static_cast<std::size_t>(n));
    }
    const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    ::close(scrape);
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

// The daemon refuses a --duration it cannot read instead of serving a
// silently different scenario; the values the benchmark passes still work.
TEST_F(EvalServerCli, DurationMustBeAPositiveNumber) {
    for (const char* bad : {"60x", "banana", "0", "-5", "inf", "nan", ""}) {
        const Outcome r = run({EHDOE_EVAL_SERVER_BIN, "--duration", bad, "--print-fingerprint"});
        EXPECT_EQ(r.exit, 2) << "--duration '" << bad << "'";
        EXPECT_NE(r.err.find("--duration must be a positive number of seconds, got '" +
                             std::string(bad) + "'"),
                  std::string::npos)
            << r.err;
    }
    for (const char* good : {"60", "10", "2.5"}) {
        const Outcome r = run({EHDOE_EVAL_SERVER_BIN, "--duration", good, "--print-fingerprint"});
        EXPECT_EQ(r.exit, 0) << "--duration " << good << ": " << r.err;
        char expected[64];
        std::snprintf(expected, sizeof expected, "/duration=%.6f/", std::stod(good));
        EXPECT_NE(r.out.find(expected), std::string::npos) << r.out;
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
