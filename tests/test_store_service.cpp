// Service-level tests for the farm-wide result store (src/store/): the
// wire round trip, the headline acceptance property (a second, independent
// farm run over a warm store performs zero simulations and is bitwise
// identical), racing put-batch writers converging to the union, corrupt
// segments degrading to re-simulation (never failing a run), a store dying
// mid-run falling through to the inner backend, the result identity's
// exact bytes, handshake rejection of alien peers and other protocol
// versions, the ":PORT" stats poll, and
// stop() leaving alone descriptors the process reused after a client left
// (checked against the eval daemon too).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/inprocess_backend.hpp"
#include "core/persistent_cache.hpp"
#include "core/scenario.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "doe/factorial.hpp"
#include "net_test_utils.hpp"
#include "store/segment_log.hpp"
#include "store/store_backend.hpp"
#include "store/store_client.hpp"
#include "store/store_server.hpp"

using namespace ehdoe;
using namespace ehdoe::doe;
using ehdoe::num::Vector;

namespace {

namespace fs = std::filesystem;

/// A scratch store directory that dies with the test.
class TempDir {
public:
    explicit TempDir(const std::string& stem) {
        static int seq = 0;
        path_ = (fs::temp_directory_path() /
                 (stem + "-" + std::to_string(::getpid()) + "-" + std::to_string(seq++)))
                    .string();
        fs::create_directories(path_);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

std::unique_ptr<store::StoreServer> start_store(const TempDir& dir) {
    store::StoreServerOptions o;
    o.dir = dir.path();
    o.verbose = false;
    auto server = std::make_unique<store::StoreServer>(std::move(o));
    server->start();
    return server;
}

std::string store_endpoint_of(const store::StoreServer& server) {
    return "127.0.0.1:" + std::to_string(server.port());
}

const DesignSpace kSpace({{"x", 0.0, 10.0, false}, {"y", -5.0, 5.0, false}});

Simulation transcendental_sim() {
    return [](const Vector& nat) {
        const double x = nat[0], y = nat[1];
        return std::map<std::string, double>{
            {"f", std::sin(x) * std::exp(0.3 * y) + std::sqrt(x + 1.0)},
            {"g", std::cos(x * y) / (1.0 + x * x)},
        };
    };
}

/// A loopback port that was just bound and released — connecting to it
/// refuses (nothing listens there between the close and the connect).
std::uint16_t dead_port() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ::close(fd);
    return ntohs(addr.sin_port);
}

/// This process's descriptor for the server end of loopback connection
/// `client`, or -1.
int server_end_of(int client) {
    sockaddr_in mine{};
    socklen_t len = sizeof mine;
    if (::getsockname(client, reinterpret_cast<sockaddr*>(&mine), &len) != 0) return -1;
    for (int fd = 0; fd < 4096; ++fd) {
        sockaddr_in peer{};
        len = sizeof peer;
        if (fd != client && ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) == 0 &&
            peer.sin_family == AF_INET && peer.sin_port == mine.sin_port)
            return fd;
    }
    return -1;
}

/// True once the server is done with its end `fd` of a connection whose
/// client left: the descriptor is closed, or the socket is shut down (its
/// TCP state has moved past CLOSE_WAIT).
bool released(int fd) {
    if (::fcntl(fd, F_GETFD) < 0) return true;
    tcp_info info{};
    socklen_t len = sizeof info;
    if (::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &len) != 0) return true;
    return info.tcpi_state != TCP_ESTABLISHED && info.tcpi_state != TCP_CLOSE_WAIT;
}

/// The single live segment file of a fresh store directory.
fs::path only_segment(const std::string& dir) {
    fs::path found;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("segment-", 0) == 0 && name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".log") == 0) {
            EXPECT_TRUE(found.empty()) << "expected exactly one segment";
            found = entry.path();
        }
    }
    EXPECT_FALSE(found.empty());
    return found;
}

}  // namespace

TEST(StoreService, ClientRoundTripAndStats) {
    TempDir dir("ehdoe-storesvc-roundtrip");
    auto server = start_store(dir);
    store::StoreClient client("127.0.0.1", server->port());

    // Cold store: every lookup is a miss.
    auto lookups = client.get({"k1", "k2"});
    ASSERT_EQ(lookups.size(), 2u);
    EXPECT_FALSE(lookups[0].found);
    EXPECT_FALSE(lookups[1].found);

    std::vector<net::StoreEntry> entries(2);
    entries[0].key = "k1";
    entries[0].responses = {{"E_harv", 1.0 / 3.0}, {"packets", 42.0}};
    entries[1].key = "k2";
    entries[1].responses = {{"E_harv", 0x1.fedcba987p-3}};
    EXPECT_EQ(client.put(entries), 2u);
    EXPECT_EQ(client.put(entries), 0u) << "bitwise duplicates must not re-append";

    lookups = client.get({"k1", "k3", "k2"});
    ASSERT_EQ(lookups.size(), 3u);
    EXPECT_TRUE(lookups[0].found);
    EXPECT_FALSE(lookups[1].found);
    EXPECT_TRUE(lookups[2].found);
    EXPECT_EQ(lookups[0].responses, entries[0].responses);
    EXPECT_EQ(lookups[2].responses, entries[1].responses);

    const net::StoreStats stats = client.stats();
    EXPECT_EQ(stats.keys, 2u);
    EXPECT_EQ(stats.segments, 1u);
    EXPECT_EQ(stats.quarantined_segments, 0u);
    EXPECT_EQ(stats.records_appended, 2u);
    EXPECT_EQ(stats.puts_received, 4u);
    EXPECT_EQ(stats.gets_served, 5u);
    EXPECT_EQ(stats.get_hits, 2u);
    EXPECT_GE(stats.connections_accepted, 1u);
    server->stop();
}

// ---------------------------------------------------------------------------
// The headline acceptance property: two *independent* farm runs — separate
// processes, separate runners, nothing shared but the store endpoint — and
// the second one simulates nothing, bitwise identical to a storeless run.
// ---------------------------------------------------------------------------
TEST(StoreService, SecondFarmProcessOverAWarmStoreSimulatesNothing) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const DesignSpace space = sc.design_space();
    const Design ccd = doe::central_composite(space.dimension());

    // Storeless reference (computed before the fork so both processes can
    // compare against the identical baseline).
    RunnerOptions plain;
    plain.threads = 2;
    const RunResults base =
        BatchRunner(sc.make_simulation(), plain).run_design(space, ccd);
    ASSERT_EQ(base.simulations, 45u);

    TempDir dir("ehdoe-storesvc-twofarms");
    auto server = start_store(dir);

    RunnerOptions o;
    o.threads = 2;
    o.cache_fingerprint = sc.fingerprint();
    o.store_endpoint = store_endpoint_of(*server);

    // Farm run 1 in a child process: cold store, full simulation bill, and
    // every result published back.
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const RunResults r =
            BatchRunner(sc.make_simulation(), o).run_design(space, ccd);
        const bool ok = r.simulations == 45u &&
                        num::approx_equal(r.responses, base.responses, 0.0);
        ::_exit(ok ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0) << "the cold farm run must simulate and match";
    EXPECT_EQ(server->log().size(), 45u) << "every distinct point must be published";

    // Farm run 2 in this process: a different farm, warm store — zero
    // simulations, bitwise-identical responses.
    const RunResults warm = BatchRunner(sc.make_simulation(), o).run_design(space, ccd);
    EXPECT_EQ(warm.simulations, 0u)
        << "a second farm run over a warm store must not simulate";
    EXPECT_EQ(warm.cache_hits, ccd.runs());
    EXPECT_TRUE(num::approx_equal(warm.responses, base.responses, 0.0))
        << "store hits must be bitwise identical to local simulation";
    server->stop();
}

TEST(StoreService, RacingPutWritersConvergeToTheUnion) {
    TempDir dir("ehdoe-storesvc-racing");
    auto server = start_store(dir);
    constexpr int kWriters = 2;
    constexpr int kKeysEach = 40;

    // Each child is an independent "farm client" hammering put-batches:
    // private keys plus a shared set both race to publish with identical
    // bits (the replayed-batch case). Every writer is forked before any
    // connects: a fork while a server thread holds a lock (the fd registry
    // takes one per accepted connection) hands the child that lock held
    // forever. Closing the go pipe releases them together.
    int go[2];
    ASSERT_EQ(::pipe(go), 0);
    std::vector<pid_t> children;
    for (int c = 0; c < kWriters; ++c) {
        const pid_t pid = fork();
        if (pid == 0) {
            ::close(go[1]);
            char byte;
            while (::read(go[0], &byte, 1) < 0 && errno == EINTR) {
            }
            bool ok = true;
            try {
                store::StoreClient client("127.0.0.1", server->port());
                for (int i = 0; i < kKeysEach; ++i) {
                    net::StoreEntry mine;
                    mine.key = "w" + std::to_string(c) + "-k" + std::to_string(i);
                    mine.responses = {{"v", 1000.0 * c + i}};
                    net::StoreEntry shared;
                    shared.key = "shared-k" + std::to_string(i);
                    shared.responses = {{"v", 0.5 * i}};
                    client.put({mine, shared});
                }
            } catch (const std::exception&) {
                ok = false;
            }
            ::_exit(ok ? 0 : 1);
        }
        children.push_back(pid);
    }
    ::close(go[0]);
    ::close(go[1]);
    for (const pid_t pid : children) {
        ASSERT_GT(pid, 0) << "fork failed";
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        ASSERT_EQ(WEXITSTATUS(status), 0);
    }

    // The union, exactly: every writer's private keys, the shared set once.
    EXPECT_EQ(server->log().size(),
              static_cast<std::size_t>(kWriters * kKeysEach + kKeysEach));
    store::StoreClient reader("127.0.0.1", server->port());
    for (int c = 0; c < kWriters; ++c) {
        for (int i = 0; i < kKeysEach; ++i) {
            const auto got =
                reader.get({"w" + std::to_string(c) + "-k" + std::to_string(i)});
            ASSERT_TRUE(got[0].found) << "writer " << c << " key " << i << " was dropped";
            EXPECT_EQ(got[0].responses.at("v"), 1000.0 * c + i);
        }
    }
    for (int i = 0; i < kKeysEach; ++i) {
        const auto got = reader.get({"shared-k" + std::to_string(i)});
        ASSERT_TRUE(got[0].found);
        EXPECT_EQ(got[0].responses.at("v"), 0.5 * i);
    }
    server->stop();
}

TEST(StoreService, CorruptSegmentIsQuarantinedAndRunsFallThroughToSimulation) {
    TempDir dir("ehdoe-storesvc-corrupt");
    const Design grid = full_factorial(2, 3);  // 9 distinct points

    RunnerOptions o;
    o.cache_fingerprint = "sim-corrupt";
    {
        auto server = start_store(dir);
        o.store_endpoint = store_endpoint_of(*server);
        const RunResults cold =
            BatchRunner(transcendental_sim(), o).run_design(kSpace, grid);
        EXPECT_EQ(cold.simulations, 9u);
        EXPECT_EQ(server->log().size(), 9u);
        server->stop();
    }

    // Damage the store on disk: flip a byte in the last record's body.
    {
        const fs::path segment = only_segment(dir.path());
        std::fstream io(segment, std::ios::binary | std::ios::in | std::ios::out);
        io.seekg(-3, std::ios::end);
        const auto pos = io.tellg();
        char byte = 0;
        io.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5A);
        io.seekp(pos);
        io.write(&byte, 1);
    }

    // A fresh daemon on the damaged directory quarantines the segment and
    // keeps serving; the next run re-simulates only what was lost — the
    // run completes, bitwise identical, and repairs the store by re-putting.
    auto server = start_store(dir);
    EXPECT_EQ(server->log().counters().quarantined_segments, 1u);
    const std::size_t surviving = server->log().size();
    EXPECT_LT(surviving, 9u);

    o.store_endpoint = store_endpoint_of(*server);
    const RunResults reference =
        BatchRunner(transcendental_sim(), RunnerOptions{}).run_design(kSpace, grid);
    const RunResults after =
        BatchRunner(transcendental_sim(), o).run_design(kSpace, grid);
    EXPECT_EQ(after.simulations, 9u - surviving)
        << "exactly the quarantined records must be re-simulated";
    EXPECT_GT(after.simulations, 0u);
    EXPECT_TRUE(num::approx_equal(after.responses, reference.responses, 0.0));
    EXPECT_EQ(server->log().size(), 9u) << "the re-simulated points must be re-published";
    server->stop();
}

TEST(StoreService, StoreDyingMidRunFallsThroughToTheInnerBackend) {
    TempDir dir("ehdoe-storesvc-dying");
    auto server = start_store(dir);

    core::BackendOptions bo;
    auto inner = std::make_shared<core::InProcessBackend>(transcendental_sim(), bo);
    store::StoreBackendOptions so;
    so.host = "127.0.0.1";
    so.port = server->port();
    so.fingerprint = "sim-dying";
    so.redial_seconds = 3600.0;  // no re-dial inside this test
    store::StoreBackend backend(inner, so);

    std::vector<Vector> first = {Vector{1.0, 2.0}, Vector{3.0, 4.0}};
    backend.evaluate(first);
    EXPECT_EQ(backend.simulations(), 2u);
    backend.evaluate(first);  // warm: served by the store, not the sim
    EXPECT_EQ(backend.simulations(), 2u);
    EXPECT_EQ(backend.store_hits(), 2u);
    EXPECT_TRUE(backend.connected());

    // Kill the store mid-run: the next batch must degrade to simulation,
    // not throw.
    server->stop();
    server.reset();
    std::vector<Vector> second = {Vector{5.0, 6.0}};
    const auto got = backend.evaluate(second);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(backend.simulations(), 3u) << "the miss must fall through to the inner backend";
    EXPECT_FALSE(backend.connected());

    // And it stays dead quietly: further batches keep working.
    std::vector<Vector> third = {Vector{7.0, 8.0}};
    backend.evaluate(third);
    EXPECT_EQ(backend.simulations(), 4u);
}

TEST(StoreService, UnreachableStoreIsALoudConstructionError) {
    const std::uint16_t port = dead_port();
    core::BackendOptions bo;
    auto inner = std::make_shared<core::InProcessBackend>(transcendental_sim(), bo);
    store::StoreBackendOptions so;
    so.host = "127.0.0.1";
    so.port = port;
    so.fingerprint = "sim-unreachable";
    EXPECT_THROW(store::StoreBackend(inner, so), std::runtime_error);

    // The same misconfiguration through RunnerOptions: the runner must
    // refuse to start, not silently run storeless.
    RunnerOptions o;
    o.cache_fingerprint = "sim-unreachable";
    o.store_endpoint = "127.0.0.1:" + std::to_string(port);
    EXPECT_THROW(BatchRunner(transcendental_sim(), o), std::runtime_error);
}

TEST(StoreService, SnapshotAndStoreTiersEachServeAWarmRunAlone) {
    TempDir dir("ehdoe-storesvc-tiering");
    auto server = start_store(dir);
    net_test::TempFile cache("ehdoe-storesvc-tier");
    const Design grid = full_factorial(2, 3);

    RunnerOptions both;
    both.cache_fingerprint = "sim-tier";
    both.cache_file = cache.path();
    both.store_endpoint = store_endpoint_of(*server);
    {
        // Cold run populates both tiers (the snapshot on destruction).
        const RunResults cold =
            BatchRunner(transcendental_sim(), both).run_design(kSpace, grid);
        EXPECT_EQ(cold.simulations, 9u);
    }
    EXPECT_EQ(server->log().size(), 9u);

    {
        // Snapshot tier alone (no store endpoint): warm.
        RunnerOptions snapshot_only;
        snapshot_only.cache_fingerprint = "sim-tier";
        snapshot_only.cache_file = cache.path();
        const RunResults r =
            BatchRunner(transcendental_sim(), snapshot_only).run_design(kSpace, grid);
        EXPECT_EQ(r.simulations, 0u);
    }
    {
        // Store tier alone (no snapshot file): warm.
        RunnerOptions store_only;
        store_only.cache_fingerprint = "sim-tier";
        store_only.store_endpoint = store_endpoint_of(*server);
        const RunResults r =
            BatchRunner(transcendental_sim(), store_only).run_design(kSpace, grid);
        EXPECT_EQ(r.simulations, 0u);
    }
    server->stop();
}

// The result identity BatchRunner hands both tiers is
// "<cache_fingerprint>/replicates=1", byte for byte: store keys and
// snapshots written under it by earlier builds must stay warm.
TEST(StoreService, ResultIdentityKeepsTheBytesEarlierBuildsWrote) {
    const std::string identity = "sim-identity/replicates=1";
    const Simulation sim = transcendental_sim();
    const Design grid = full_factorial(2, 3);
    std::vector<Vector> points;
    for (std::size_t i = 0; i < grid.runs(); ++i)
        points.push_back(kSpace.to_natural(grid.points.row(i)));

    TempDir dir("ehdoe-storesvc-identity");
    {
        store::SegmentLogOptions lo;
        lo.verbose = false;
        store::SegmentLog log(dir.path(), lo);
        for (const Vector& x : points) log.put(store::StoreBackend::point_key(identity, x), sim(x));
    }
    net_test::TempFile cache("ehdoe-storesvc-identity");
    {
        core::PersistentCache snapshot(
            std::make_shared<core::InProcessBackend>(sim, core::BackendOptions{}), cache.path(),
            identity, /*autosave=*/false);
        snapshot.evaluate(points);
        ASSERT_TRUE(snapshot.save());
    }

    auto server = start_store(dir);
    RunnerOptions store_only;
    store_only.cache_fingerprint = "sim-identity";
    store_only.store_endpoint = store_endpoint_of(*server);
    const RunResults from_store = BatchRunner(sim, store_only).run_design(kSpace, grid);
    EXPECT_EQ(from_store.simulations, 0u);
    EXPECT_EQ(from_store.cache_hits, grid.runs());
    server->stop();

    RunnerOptions snapshot_only;
    snapshot_only.cache_fingerprint = "sim-identity";
    snapshot_only.cache_file = cache.path();
    const RunResults from_snapshot = BatchRunner(sim, snapshot_only).run_design(kSpace, grid);
    EXPECT_EQ(from_snapshot.simulations, 0u);
    EXPECT_EQ(from_snapshot.cache_hits, grid.runs());
}

// ---------------------------------------------------------------------------
// Handshake hardening: the store daemon must reject alien peers and any
// protocol version but its own without disturbing the log or other
// connections.
// ---------------------------------------------------------------------------
TEST(StoreService, EvalMagicIsRejectedByTheStoreServer) {
    TempDir dir("ehdoe-storesvc-alien");
    auto server = start_store(dir);
    const int fd = net_test::raw_connect(server->port());
    const char eval_magic[6] = {'E', 'H', 'D', 'O', 'E', 'N'};
    ASSERT_EQ(::send(fd, eval_magic, sizeof eval_magic, MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof eval_magic));
    char buf[16];
    EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0)
        << "an eval peer must be dropped by the store handshake";
    ::close(fd);
    EXPECT_GE(server->handshakes_rejected(), 1u);

    // The daemon is unharmed: a real store client still round-trips.
    store::StoreClient client("127.0.0.1", server->port());
    EXPECT_FALSE(client.get({"k"})[0].found);
    server->stop();
}

TEST(StoreService, PreStoreProtocolVersionIsRefusedWithAClearMessage) {
    TempDir dir("ehdoe-storesvc-version");
    auto server = start_store(dir);
    const int fd = net_test::raw_connect(server->port());
    // A hello from a newer build: only kProtocolVersion is served.
    ASSERT_TRUE(net::write_store_hello(fd, net::kProtocolVersion + 1));
    std::uint64_t status = 0;
    std::string message;
    net::Reader in(fd);
    ASSERT_TRUE(net::read_welcome(in, status, message));
    EXPECT_NE(status, net::kStatusOk);
    EXPECT_NE(message.find("store server speaks"), std::string::npos) << message;
    ::close(fd);
    EXPECT_GE(server->handshakes_rejected(), 1u);
    server->stop();
}

// ":PORT" is loopback shorthand, as for every eval endpoint: the monitoring
// CLIs' --store :PORT must poll a live store, not report it down.
TEST(StoreService, StatsPollAcceptsTheColonPortShorthand) {
    TempDir dir("ehdoe-storesvc-shorthand");
    auto server = start_store(dir);
    store::StoreClient("127.0.0.1", server->port()).put({{"k", {{"f", 1.0}}}});

    net::StoreStats stats;
    std::string error;
    ASSERT_TRUE(store::query_store_stats(":" + std::to_string(server->port()), stats, error))
        << error;
    EXPECT_EQ(stats.keys, 1u);
    server->stop();
}

namespace {

/// A store connection past its handshake; returns the client's end.
int handshaken_store_client(std::uint16_t port) {
    const int client = net_test::raw_connect(port);
    std::uint64_t status = net::kStatusError;
    std::string message;
    net::Reader in(client);
    EXPECT_TRUE(net::write_store_hello(client) && net::read_welcome(in, status, message));
    EXPECT_EQ(status, net::kStatusOk) << message;
    return client;
}

/// An eval connection past its handshake with a "sim-fdreuse" server.
int handshaken_eval_client(std::uint16_t port) {
    const int client = net_test::raw_connect(port);
    net::Hello hello;
    hello.fingerprint = "sim-fdreuse";
    std::uint64_t status = net::kStatusError;
    std::string message;
    net::Reader in(client);
    EXPECT_TRUE(net::write_hello(client, hello) && net::read_welcome(in, status, message));
    EXPECT_EQ(status, net::kStatusOk) << message;
    return client;
}

// A connection thread that saw its client leave must not close its
// descriptor: the server keeps the number until it joins the thread, and
// stop() shuts that number down. Here the process reuses the lowest free
// descriptors for socketpairs after the client left; stop() must leave
// every one of them working.
template <typename Server>
void expect_stop_leaves_reused_descriptors_alone(Server& server,
                                                 int (*handshaken_client)(std::uint16_t)) {
    const int client = handshaken_client(server.port());
    const int served = server_end_of(client);
    ASSERT_GE(served, 0);
    ::close(client);

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!released(served)) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "the server never let go of the connection";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Take the lowest free descriptors up to and past the served one.
    std::vector<std::array<int, 2>> pairs;
    for (bool past = false; !past;) {
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
        pairs.push_back({sv[0], sv[1]});
        past = sv[0] >= served || sv[1] >= served;
    }
    server.stop();
    for (const auto& [a, b] : pairs) {
        char byte = 'x';
        EXPECT_EQ(::send(a, &byte, 1, MSG_NOSIGNAL), 1) << "descriptor " << a;
        EXPECT_EQ(::recv(b, &byte, 1, MSG_DONTWAIT), 1) << "descriptor " << b;
        ::close(a);
        ::close(b);
    }
}

}  // namespace

TEST(StoreService, StopLeavesAloneDescriptorsReusedAfterAClientLeft) {
    TempDir dir("ehdoe-storesvc-fdreuse");
    auto store = start_store(dir);
    expect_stop_leaves_reused_descriptors_alone(*store, handshaken_store_client);
    // The eval daemon runs the same accept-and-serve skeleton.
    auto eval = net_test::start_server(transcendental_sim(), "sim-fdreuse");
    expect_stop_leaves_reused_descriptors_alone(*eval, handshaken_eval_client);
}
