// Exec fault-path tests, hermetic via mock_hdl_sim's fault flags: crashes
// mid-batch (design-order error contract, stderr forwarding), bounded
// retry (recovery and budget exhaustion), a simulator that cannot be
// exec'd, descriptors a simulator must not inherit, the signal mask it
// starts with, hang-until-timeout
// (process *group* killed, counted in the stats frame), malformed output,
// artifact retention, and the stdin/output-file recipe modes.
#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "doe/batch_runner.hpp"
#include "exec/exec_backend.hpp"
#include "exec/exec_runner.hpp"
#include "exec/sim_recipe.hpp"
#include "exec_test_utils.hpp"
#include "net/remote_backend.hpp"
#include "net_test_utils.hpp"
#include "store/store_client.hpp"
#include "store/store_server.hpp"

using namespace ehdoe;
using namespace ehdoe::exec;
using ehdoe::exec_test::TempDir;
using ehdoe::num::Vector;

namespace {

namespace fs = std::filesystem;

/// Cheap workload: the S1 model at a 5 s horizon (sub-millisecond); fault
/// behaviour, not simulation content, is under test here.
constexpr double kShortHorizon = 5.0;

ExecBackend make_backend(const std::string& recipe_text, std::size_t threads,
                         std::size_t replicates = 1) {
    core::BackendOptions bo;
    bo.threads = threads;
    bo.replicates = replicates;
    return ExecBackend(SimRecipe::parse(recipe_text), bo);
}

/// s1_recipe_text with the mock simulator's path replaced by `command`.
std::string recipe_with_command(const std::string& command, const std::string& extra = "") {
    std::string text = ehdoe::exec_test::s1_recipe_text(kShortHorizon, "", extra);
    const std::string mock = ehdoe::exec_test::mock_path();
    text.replace(text.find(mock), mock.size(), command);
    return text;
}

/// This process's open descriptors and what each refers to, minus the one
/// listing them.
std::map<int, std::string> open_fds() {
    std::map<int, std::string> fds;
    DIR* dir = ::opendir("/proc/self/fd");
    if (!dir) return fds;
    const int self = ::dirfd(dir);
    while (const dirent* entry = ::readdir(dir)) {
        if (entry->d_name[0] == '.' || std::atoi(entry->d_name) == self) continue;
        std::error_code ec;
        fds[std::atoi(entry->d_name)] =
            fs::read_symlink(fs::path("/proc/self/fd") / entry->d_name, ec).string();
    }
    ::closedir(dir);
    return fds;
}

/// The pid a `mock_hdl_sim --hang` published next to its deck somewhere
/// under `dir`, or -1 before it has.
pid_t hang_child_pid(const std::string& dir) {
    pid_t child = -1;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (entry.path().filename().string().find(".hangpid") != std::string::npos) {
            std::ifstream in(entry.path());
            in >> child;
        }
    }
    return child;
}

/// True once the pid neither exists nor lingers as anything but a zombie
/// (an orphan's zombie belongs to init; it is dead for our purposes).
bool process_gone(pid_t pid) {
    if (::kill(pid, 0) != 0) return true;
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string content((std::istreambuf_iterator<char>(stat)),
                        std::istreambuf_iterator<char>());
    const std::size_t paren = content.rfind(')');
    return paren != std::string::npos && paren + 2 < content.size() &&
           content[paren + 2] == 'Z';
}

}  // namespace

TEST(ExecFaults, CrashMidBatchErrorsInDesignOrder) {
    // Indices 2, 5, 8 crash deterministically; the error that surfaces
    // must be the *first* failing point in input order, with the
    // simulator's exit status and stderr diagnosis attached.
    ExecBackend backend =
        make_backend(ehdoe::exec_test::s1_recipe_text(kShortHorizon, "--fail-every 3"), 3);
    try {
        backend.evaluate(ehdoe::exec_test::s1_points(9));
        FAIL() << "expected a propagated simulator crash";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("exited with status 3"), std::string::npos) << what;
        EXPECT_NE(what.find("at point 2"), std::string::npos) << what;
        EXPECT_NE(what.find("synthetic co-simulator crash"), std::string::npos)
            << "stderr tail must reach the error: " << what;
    }
    EXPECT_EQ(backend.timeouts(), 0u);
}

TEST(ExecFaults, BoundedRetryRecoversFromAFlakyLaunch) {
    TempDir dir("ehdoe-exec-retry");
    const std::string marker = (fs::path(dir.path()) / "first-launch-failed").string();

    // Reference result with no faults injected.
    ExecBackend clean = make_backend(ehdoe::exec_test::s1_recipe_text(kShortHorizon), 1);
    const auto expected = clean.evaluate(ehdoe::exec_test::s1_points(1));

    // First launch crashes (creating the marker); the relaunch succeeds.
    ExecBackend flaky = make_backend(
        ehdoe::exec_test::s1_recipe_text(kShortHorizon, "--fail-marker " + marker,
                                         "retries: 1\n"),
        1);
    const auto got = flaky.evaluate(ehdoe::exec_test::s1_points(1));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], expected[0]) << "recovered result must be bitwise identical";
    EXPECT_EQ(flaky.relaunches(), 1u);
    EXPECT_EQ(flaky.launches(), 2u);
    EXPECT_EQ(flaky.simulations(), 1u);
}

TEST(ExecFaults, RetryBudgetExhaustionIsACleanError) {
    ExecBackend backend = make_backend(
        ehdoe::exec_test::s1_recipe_text(kShortHorizon, "--fail-every 1", "retries: 2\n"), 1);
    try {
        backend.evaluate(ehdoe::exec_test::s1_points(1));
        FAIL() << "expected the retry budget to run out";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("after 3 launch(es)"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(backend.launches(), 3u);
    EXPECT_EQ(backend.relaunches(), 2u);
}

TEST(ExecFaults, MissingSimulatorIsACleanError) {
    // A simulator that cannot be exec'd is a failed launch like a crash:
    // retried per the recipe, then an error naming the command, with the
    // shell's statuses (127 when the file is missing, 126 when it cannot
    // be executed).
    TempDir dir("ehdoe-exec-missing");
    const std::string missing = (fs::path(dir.path()) / "no-such-simulator").string();
    ExecBackend backend = make_backend(recipe_with_command(missing, "retries: 1\n"), 1);
    try {
        backend.evaluate(ehdoe::exec_test::s1_points(1));
        FAIL() << "expected the missing simulator to fail the point";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cannot exec '" + missing + "'"), std::string::npos) << what;
        EXPECT_NE(what.find("status 127"), std::string::npos) << what;
        EXPECT_NE(what.find("after 2 launch(es)"), std::string::npos) << what;
    }
    EXPECT_EQ(backend.launches(), 2u);
    EXPECT_EQ(backend.relaunches(), 1u);

    const std::string plain =
        ehdoe::exec_test::write_file(dir, "not-executable", "#!/bin/sh\nexit 0\n");
    fs::permissions(plain, fs::perms::owner_read | fs::perms::owner_write);
    ExecBackend denied = make_backend(recipe_with_command(plain), 1);
    try {
        denied.evaluate(ehdoe::exec_test::s1_points(1));
        FAIL() << "expected the non-executable simulator to fail the point";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cannot exec '" + plain + "'"), std::string::npos) << what;
        EXPECT_NE(what.find("status 126"), std::string::npos) << what;
    }
    EXPECT_EQ(denied.launches(), 1u);
}

TEST(ExecFaults, LaunchedSimulatorInheritsNoLibraryDescriptors) {
    // Open one of each long-lived descriptor the library owns: listeners,
    // accepted and dialed connections, and the store's active segment.
    TempDir dir("ehdoe-exec-fds");
    const std::map<int, std::string> before = open_fds();
    store::StoreServerOptions so;
    so.dir = (fs::path(dir.path()) / "store").string();
    so.verbose = false;
    store::StoreServer store_server(so);
    store_server.start();
    store::StoreClient store_client("127.0.0.1", store_server.port());
    auto eval_server = net_test::start_server(
        [](const Vector&) { return core::ResponseMap{{"y", 1.0}}; }, "fds");
    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(net_test::endpoint_of(*eval_server))};
    ro.fingerprint = "fds";
    net::RemoteBackend remote(ro);
    std::map<int, std::string> library = open_fds();
    for (const auto& [fd, target] : before) library.erase(fd);
    ASSERT_GE(library.size(), 7u)
        << "two listeners, two accepted and two dialed connections, segment";

    ExecBackend backend = make_backend(
        ehdoe::exec_test::s1_recipe_text(kShortHorizon, "--report-fds",
                                         "keep-artifacts: true\nscratch-dir: " + dir.path() +
                                             "/exec\n"),
        1);
    backend.evaluate(ehdoe::exec_test::s1_points(1));

    std::string reported;
    for (const auto& entry : fs::recursive_directory_iterator(dir.path() + "/exec")) {
        if (entry.path().filename() != "stdout.txt") continue;
        std::ifstream in(entry.path());
        for (std::string line; std::getline(in, line);) {
            if (line.rfind("open_fds=", 0) == 0) reported = line.substr(9);
        }
    }
    ASSERT_FALSE(reported.empty()) << "mock_hdl_sim --report-fds must list its descriptors";
    std::istringstream list(reported);
    std::vector<int> inherited;
    for (std::string token; std::getline(list, token, ',');) inherited.push_back(std::stoi(token));
    ASSERT_GE(inherited.size(), 3u) << "stdin, stdout and stderr: " << reported;
    for (const int fd : inherited) {
        EXPECT_EQ(library.count(fd), 0u)
            << "the simulator inherited descriptor " << fd << " (" << library[fd] << ")";
    }
}

TEST(ExecFaults, HangTimesOutAndKillsTheProcessGroup) {
    TempDir scratch("ehdoe-exec-hang");
    // keep-artifacts + a pinned scratch dir: the test must find the hung
    // simulator's child pid file after the kill.
    ExecBackend backend = make_backend(
        ehdoe::exec_test::s1_recipe_text(kShortHorizon, "--hang",
                                         "timeout: 0.4\nkeep-artifacts: true\nscratch-dir: " +
                                             scratch.path() + "\n"),
        1);
    const auto t0 = std::chrono::steady_clock::now();
    try {
        backend.evaluate(ehdoe::exec_test::s1_points(1));
        FAIL() << "expected a timeout error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("timed out after"), std::string::npos)
            << e.what();
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    EXPECT_GE(elapsed, 0.4);
    EXPECT_LT(elapsed, 10.0) << "the kill must not wait for the hang to finish";
    EXPECT_EQ(backend.timeouts(), 1u);
    EXPECT_EQ(backend.relaunches(), 0u) << "timeouts are not retried";

    // The simulator forked its own child; killing the *group* must have
    // taken that child down too (give reparenting/reaping a moment).
    const pid_t child = hang_child_pid(scratch.path());
    ASSERT_GT(child, 0) << "mock_hdl_sim --hang must publish its child pid";
    bool gone = false;
    for (int i = 0; i < 100 && !gone; ++i) {
        gone = process_gone(child);
        if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(gone) << "process-group kill must reach the simulator's children (pid "
                      << child << ")";
}

TEST(ExecFaults, SimulatorStartsWithNoSignalBlocked) {
    // A spawned process inherits the launching thread's signal mask, and
    // the daemons block SIGINT and SIGTERM in every thread (they take them
    // with sigwait). Launch from such a thread and read the hung
    // simulator's mask once it has published its child's pid.
    TempDir scratch("ehdoe-exec-sigmask");
    ExecRunner runner(SimRecipe::parse(ehdoe::exec_test::s1_recipe_text(
        kShortHorizon, "--hang",
        "timeout: 20\nkeep-artifacts: true\nscratch-dir: " + scratch.path() + "\n")));
    std::thread launcher([&] {
        sigset_t stop_signals;
        sigemptyset(&stop_signals);
        sigaddset(&stop_signals, SIGINT);
        sigaddset(&stop_signals, SIGTERM);
        pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
        runner.run_point(ehdoe::exec_test::s1_points(1)[0], 0);
    });
    pid_t child = -1;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while ((child = hang_child_pid(scratch.path())) <= 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::string blocked;
    if (child > 0) {
        // The simulator leads its own process group. Read its mask, not its
        // child's: a sanitizer's fork handling blocks every signal in the
        // child for a moment.
        const pid_t simulator = ::getpgid(child);
        std::ifstream status("/proc/" + std::to_string(simulator) + "/status");
        for (std::string line; std::getline(status, line);) {
            if (line.rfind("SigBlk:", 0) == 0) blocked = line.substr(line.find_last_of(" \t") + 1);
        }
        ::kill(-simulator, SIGKILL);  // ends the launch now, not at the timeout
    }
    launcher.join();
    ASSERT_GT(child, 0) << "mock_hdl_sim --hang must publish its child pid";
    EXPECT_EQ(blocked, "0000000000000000");
}

TEST(ExecFaults, MalformedOutputIsACleanError) {
    ExecBackend backend = make_backend(
        ehdoe::exec_test::s1_recipe_text(kShortHorizon, "--garbage-index 0"), 1);
    try {
        backend.evaluate(ehdoe::exec_test::s1_points(1));
        FAIL() << "expected an extractor error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'E_harv' not found"), std::string::npos) << what;
        EXPECT_NE(what.find("corrupted"), std::string::npos)
            << "the output tail must reach the error: " << what;
    }
}

TEST(ExecFaults, ArtifactRetentionFollowsTheRecipe) {
    const auto points = ehdoe::exec_test::s1_points(2);
    {
        // Default: per-point scratch dirs are cleaned as points resolve,
        // and the root dies with the runner.
        TempDir scratch("ehdoe-exec-clean");
        {
            ExecBackend backend = make_backend(
                ehdoe::exec_test::s1_recipe_text(kShortHorizon, "",
                                                 "scratch-dir: " + scratch.path() + "\n"),
                1);
            backend.evaluate(points);
            EXPECT_TRUE(fs::is_empty(scratch.path()))
                << "resolved points must leave no scratch dirs behind";
        }
    }
    {
        TempDir scratch("ehdoe-exec-keep");
        ExecBackend backend = make_backend(
            ehdoe::exec_test::s1_recipe_text(
                kShortHorizon, "",
                "keep-artifacts: true\nscratch-dir: " + scratch.path() + "\n"),
            1);
        backend.evaluate(points);
        std::size_t decks = 0, stdouts = 0;
        for (const auto& entry : fs::recursive_directory_iterator(scratch.path())) {
            if (entry.path().filename() == "deck.txt") ++decks;
            if (entry.path().filename() == "stdout.txt") ++stdouts;
        }
        EXPECT_EQ(decks, 2u) << "keep-artifacts must retain every rendered deck";
        EXPECT_EQ(stdouts, 2u) << "keep-artifacts must retain every output capture";
    }
}

TEST(ExecFaults, StdinAndOutputFileModesWork) {
    // The mock reads its deck from stdin when no --deck is given, and
    // writes responses to --output; drive both recipe modes at once.
    const std::string recipe_text =
        "command: " + ehdoe::exec_test::mock_path() +
        " --output result.out\n"
        "input: stdin\n"
        "deck-line: scenario S1\n"
        "deck-line: duration " +
        std::to_string(kShortHorizon) +
        "\n"
        "deck-line: point {point}\n"
        "output: file result.out\n"
        "extract: E_harv regex ^E_harv=(\\S+)$\n"
        "extract: packets column values 6\n";
    ExecBackend backend = make_backend(recipe_text, 2);
    ExecBackend reference =
        make_backend(ehdoe::exec_test::s1_recipe_text(kShortHorizon), 1);

    const auto points = ehdoe::exec_test::s1_points(3);
    const auto got = backend.evaluate(points);
    const auto expected = reference.evaluate(points);
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].at("E_harv"), expected[i].at("E_harv")) << "point " << i;
        EXPECT_EQ(got[i].at("packets"), expected[i].at("packets")) << "point " << i;
        EXPECT_EQ(got[i].size(), 2u) << "only the recipe's extractors are returned";
    }
}

TEST(ExecFaults, CrlfSimulatorOutputParsesIdentically) {
    // A Windows-style co-simulator terminates every line with \r\n. The
    // runner's line splitter must strip the \r — otherwise the
    // $-anchored regex extractors miss every NAME=VALUE line and the
    // column extractor's last token grows a trailing \r.
    ExecBackend crlf = make_backend(
        ehdoe::exec_test::s1_recipe_text(kShortHorizon, "--crlf"), 2);
    ExecBackend reference = make_backend(ehdoe::exec_test::s1_recipe_text(kShortHorizon), 1);

    const auto points = ehdoe::exec_test::s1_points(3);
    const auto got = crlf.evaluate(points);
    const auto expected = reference.evaluate(points);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], expected[i])
            << "CRLF output must parse bitwise identical to LF output (point " << i << ")";
    }
}

TEST(ExecFaults, ReplicatesAverageLikeEveryBackend) {
    // The mock is deterministic; what is asserted here is the launch
    // accounting (values are cross-backend-identical by construction: the
    // runner uses the exact replicate arithmetic of simulate_replicated).
    ExecBackend backend = make_backend(ehdoe::exec_test::s1_recipe_text(kShortHorizon), 1, 3);
    const auto got = backend.evaluate(ehdoe::exec_test::s1_points(2));
    EXPECT_EQ(backend.launches(), 6u);
    EXPECT_EQ(backend.simulations(), 6u);
    ASSERT_EQ(got.size(), 2u);
}

// ---------------------------------------------------------------------------
// Exec faults through an eval-server shard: the farm's monitoring must see
// them (points_timed_out / respawns in the stats frame), and a timed-out
// point must answer *its* request with an error, not poison the shard.
// ---------------------------------------------------------------------------
TEST(ExecServerFaults, TimeoutIsCountedInTheStatsFrame) {
    net::EvalServerOptions so;
    so.workers = 2;
    so.fingerprint = "exec-fault-shard";
    // Index 0 (the first point the server dispatches) hangs; the rest of
    // the batch completes normally.
    so.recipe = SimRecipe::parse(ehdoe::exec_test::s1_recipe_text(
        kShortHorizon, "--hang-index 0", "timeout: 0.4\n"));
    net::EvalServer server(core::Simulation{}, so);
    server.start();

    doe::RunnerOptions ro;
    ro.endpoints = {net_test::endpoint_of(server)};
    ro.cache_fingerprint = "exec-fault-shard";
    doe::BatchRunner runner(doe::Simulation{}, ro);
    try {
        runner.evaluate(ehdoe::exec_test::s1_points(4));
        FAIL() << "expected the timed-out point's error to propagate";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos) << e.what();
    }

    net::ShardStats stats;
    std::string error;
    ASSERT_TRUE(net::query_shard_stats(net::parse_endpoint(net_test::endpoint_of(server)),
                                       stats, error))
        << "the shard must stay up after a timeout: " << error;
    EXPECT_EQ(stats.points_timed_out, 1u);
    EXPECT_EQ(stats.points_failed, 1u);
    EXPECT_EQ(stats.points_served, 3u) << "the other points must still be served";
    EXPECT_EQ(stats.in_flight, 0u);

    // The shard remains serviceable: a fresh batch (indices past the
    // hang) completes cleanly.
    const auto again = doe::BatchRunner(doe::Simulation{}, ro)
                           .evaluate(ehdoe::exec_test::s1_points(2));
    EXPECT_EQ(again.size(), 2u);
    server.stop();
}

TEST(ExecServerFaults, RelaunchesReportAsRespawns) {
    TempDir dir("ehdoe-exec-respawn");
    const std::string marker = (fs::path(dir.path()) / "flaky-marker").string();
    net::EvalServerOptions so;
    so.workers = 1;
    so.fingerprint = "exec-respawn-shard";
    so.recipe = SimRecipe::parse(ehdoe::exec_test::s1_recipe_text(
        kShortHorizon, "--fail-marker " + marker, "retries: 1\n"));
    net::EvalServer server(core::Simulation{}, so);
    server.start();

    doe::RunnerOptions ro;
    ro.endpoints = {net_test::endpoint_of(server)};
    ro.cache_fingerprint = "exec-respawn-shard";
    const auto got =
        doe::BatchRunner(doe::Simulation{}, ro).evaluate(ehdoe::exec_test::s1_points(2));
    EXPECT_EQ(got.size(), 2u);

    net::ShardStats stats;
    std::string error;
    ASSERT_TRUE(net::query_shard_stats(net::parse_endpoint(net_test::endpoint_of(server)),
                                       stats, error))
        << error;
    EXPECT_EQ(stats.worker_respawns, 1u)
        << "an exec relaunch must report as a respawn in the stats frame";
    EXPECT_EQ(stats.points_served, 2u);
    EXPECT_EQ(stats.points_failed, 0u);
    server.stop();
}
