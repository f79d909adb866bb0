// Malformed-frame hardening: a peer sending an oversized length prefix or a
// frame truncated mid-payload must fail its connection cleanly — no
// allocation blow-up, no hang, no collateral damage to other connections.
// Covers both directions of read_exact/frame decode: hostile client against
// EvalServer, and hostile (fake) server against RemoteBackend. Also pins the
// exact-version handshake: every connection kind refuses any version but
// kProtocolVersion, the one listener: both daemons refuse to start on a
// host or port they cannot listen on, and the one pre-handshake deadline of
// both daemons.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "doe/batch_runner.hpp"
#include "doe/factorial.hpp"
#include "net/eval_server.hpp"
#include "net/remote_backend.hpp"
#include "net/wire.hpp"
#include "net_test_utils.hpp"
#include "store/store_client.hpp"
#include "store/store_server.hpp"

using namespace ehdoe;
using namespace ehdoe::doe;
using namespace ehdoe::net_test;
using ehdoe::num::Vector;

namespace {

const DesignSpace kSpace({{"x", 0.0, 10.0, false}, {"y", -5.0, 5.0, false}});

Simulation identity_sim() {
    return [](const Vector& nat) -> std::map<std::string, double> {
        return {{"f", nat[0]}};
    };
}

/// True when the peer closed: recv() returns 0 (EOF) or a hard error, and
/// never blocks forever (the fd has a receive timeout armed).
bool peer_closed(int fd) {
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    char byte = 0;
    return ::recv(fd, &byte, 1, 0) <= 0;
}

/// Complete an eval handshake on a raw socket; returns the accepted fd (the
/// welcome's clock sample is consumed and discarded).
int handshaken_connect(const net::EvalServer& server, const std::string& fingerprint) {
    const int fd = raw_connect(server.port());
    net::Hello hello;
    hello.fingerprint = fingerprint;
    EXPECT_TRUE(net::write_hello(fd, hello));
    std::uint64_t status = net::kStatusError;
    std::string message;
    EXPECT_TRUE(net::read_welcome(fd, status, message));
    EXPECT_EQ(status, net::kStatusOk) << message;
    return fd;
}

/// A fake eval-server speaking just enough protocol to hand the client one
/// poisoned response. Accepts one connection, answers the handshake, reads
/// one batch request, writes `poison` raw bytes, then closes.
class PoisonServer {
public:
    explicit PoisonServer(std::vector<unsigned char> poison) : poison_(std::move(poison)) {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(listen_fd_, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
                  0);
        EXPECT_EQ(::listen(listen_fd_, 4), 0);
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
        port_ = ntohs(bound.sin_port);
        thread_ = std::thread([this] { serve(); });
    }

    ~PoisonServer() {
        ::shutdown(listen_fd_, SHUT_RDWR);
        if (thread_.joinable()) thread_.join();
        ::close(listen_fd_);
    }

    std::uint16_t port() const { return port_; }

private:
    void serve() {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        net::ConnectionKind kind = net::ConnectionKind::Unknown;
        net::Hello hello;
        if (net::read_connection_magic(fd, kind) && kind == net::ConnectionKind::Eval &&
            net::read_hello_body(fd, hello) && net::write_welcome(fd, net::kStatusOk, "")) {
            std::vector<Vector> request;
            if (net::read_batch_request(fd, request)) {
                net::write_all(fd, poison_.data(), poison_.size());
            }
        }
        ::close(fd);
    }

    std::vector<unsigned char> poison_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread thread_;
};

/// Little-endian-of-host u64 appended raw (the wire is host-endian).
void push_u64(std::vector<unsigned char>& bytes, std::uint64_t v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof v);
}

}  // namespace

// ---------------------------------------------------------------------------
// EvalServer side.
// ---------------------------------------------------------------------------
TEST(WireHardening, ServerDropsOversizedRequestDimensionWithoutAllocating) {
    auto server = start_server(identity_sim(), "sim-id");

    const int fd = handshaken_connect(*server, "sim-id");
    // A request claiming 2^60 points: the sane-limit check must fail
    // the connection before any allocation is attempted.
    ASSERT_TRUE(net::write_u64(fd, std::uint64_t{1} << 60));
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);

    // The server survives and keeps serving honest clients.
    BatchRunner runner(identity_sim(), remote_options({endpoint_of(*server)}, "sim-id"));
    EXPECT_EQ(runner.run_design(kSpace, doe::full_factorial(2, 2)).simulations, 4u);
    EXPECT_EQ(server->points_served(), 4u);
}

TEST(WireHardening, ServerDropsRequestTruncatedMidFrame) {
    auto server = start_server(identity_sim(), "sim-id");

    const int fd = handshaken_connect(*server, "sim-id");
    // Claim two points, deliver a torso, vanish.
    ASSERT_TRUE(net::write_u64(fd, 2));
    const double half = 1.0;
    ASSERT_TRUE(net::write_all(fd, &half, sizeof half));
    ::shutdown(fd, SHUT_WR);
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);

    EXPECT_EQ(server->points_served(), 0u);  // the torso never reached a worker
    EXPECT_TRUE(server->running());
}

// A batch claiming 2^50 points: the sane-limit check must fail the
// connection on the count field alone, before the dim even arrives.
TEST(WireHardening, OversizedBatchPointCountDropsConnection) {
    auto server = start_server(identity_sim(), "sim-id");

    const int fd = handshaken_connect(*server, "sim-id");
    ASSERT_TRUE(net::write_u64(fd, std::uint64_t{1} << 50));
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);
    EXPECT_EQ(server->points_served(), 0u);

    // An honest client is still served.
    BatchRunner runner(identity_sim(), remote_options({endpoint_of(*server)}, "sim-id"));
    EXPECT_EQ(runner.run_design(kSpace, doe::full_factorial(2, 2)).simulations, 4u);
    EXPECT_EQ(server->points_served(), 4u);
}

// count and dim each pass the per-field limit, but their product would
// demand a gigabyte-scale allocation: the area check fails it first.
TEST(WireHardening, OversizedBatchAreaDropsConnection) {
    auto server = start_server(identity_sim(), "sim-id");

    const int fd = handshaken_connect(*server, "sim-id");
    ASSERT_TRUE(net::write_u64(fd, std::uint64_t{1} << 20));
    ASSERT_TRUE(net::write_u64(fd, std::uint64_t{1} << 20));
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);
    EXPECT_EQ(server->points_served(), 0u);
}

TEST(WireHardening, TruncatedMidSubBatchDropsConnection) {
    auto server = start_server(identity_sim(), "sim-id");

    const int fd = handshaken_connect(*server, "sim-id");
    // Claim three 2-dim points, deliver a point and a half, vanish.
    ASSERT_TRUE(net::write_u64(fd, 3));
    ASSERT_TRUE(net::write_u64(fd, 2));
    const double coords[3] = {1.0, 2.0, 3.0};
    ASSERT_TRUE(net::write_all(fd, coords, sizeof coords));
    ::shutdown(fd, SHUT_WR);
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);
    // Nothing of the truncated sub-batch reached the workers.
    EXPECT_EQ(server->points_served(), 0u);
    EXPECT_EQ(server->points_failed(), 0u);
}

TEST(WireHardening, ServerRejectsOversizedHelloFingerprintLength) {
    auto server = start_server(identity_sim(), "sim-id");

    const int fd = raw_connect(server->port());
    // Hand-rolled hello with a fingerprint length beyond any sane frame.
    std::vector<unsigned char> bytes(net::kHandshakeMagic,
                                     net::kHandshakeMagic + sizeof net::kHandshakeMagic);
    const std::uint32_t version = net::kProtocolVersion;
    const auto* vp = reinterpret_cast<const unsigned char*>(&version);
    bytes.insert(bytes.end(), vp, vp + sizeof version);
    push_u64(bytes, std::uint64_t{1} << 58);
    ASSERT_TRUE(net::write_all(fd, bytes.data(), bytes.size()));
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);

    EXPECT_GE(server->handshakes_rejected(), 1u);
    EXPECT_TRUE(server->running());
}

// ---------------------------------------------------------------------------
// Exact-version handshake: an eval hello, a stats request and a store hello
// one version behind are each refused on their own connection, with a
// message naming both versions, and counted once.
// ---------------------------------------------------------------------------
TEST(WireHardening, EveryConnectionKindRefusesThePreviousProtocolVersion) {
    const std::uint32_t stale = net::kProtocolVersion - 1;
    const std::string both_versions = std::to_string(net::kProtocolVersion) +
                                      ", client sent " + std::to_string(stale);
    auto server = start_server(identity_sim(), "sim-id");

    int fd = raw_connect(server->port());
    net::Hello hello;
    hello.version = stale;
    hello.fingerprint = "sim-id";
    ASSERT_TRUE(net::write_hello(fd, hello));
    std::uint64_t status = net::kStatusOk;
    std::string message;
    ASSERT_TRUE(net::read_welcome(fd, status, message));
    EXPECT_EQ(status, net::kStatusError);
    EXPECT_NE(message.find("server speaks " + both_versions), std::string::npos) << message;
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);
    EXPECT_EQ(server->handshakes_rejected(), 1u);

    fd = raw_connect(server->port());
    ASSERT_TRUE(net::write_stats_request(fd, stale));
    net::ShardStats stats;
    ASSERT_TRUE(net::read_stats_reply(fd, status, stats, message));
    EXPECT_EQ(status, net::kStatusError);
    EXPECT_NE(message.find("server speaks " + both_versions), std::string::npos) << message;
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);
    EXPECT_EQ(server->handshakes_rejected(), 2u);
    EXPECT_EQ(server->stats_served(), 0u);

    const std::string dir = (std::filesystem::temp_directory_path() /
                             ("ehdoe-wire-version-" + std::to_string(::getpid())))
                                .string();
    {
        store::StoreServerOptions so;
        so.dir = dir;
        so.verbose = false;
        store::StoreServer store(so);
        store.start();
        fd = raw_connect(store.port());
        ASSERT_TRUE(net::write_store_hello(fd, stale));
        ASSERT_TRUE(net::read_welcome(fd, status, message));
        EXPECT_EQ(status, net::kStatusError);
        EXPECT_NE(message.find("store server speaks " + both_versions), std::string::npos)
            << message;
        EXPECT_TRUE(peer_closed(fd));
        ::close(fd);
        store.stop();
        EXPECT_EQ(store.handshakes_rejected(), 1u);
    }
    std::filesystem::remove_all(dir);
}

// Both daemons listen through net::listen_tcp: a close-on-exec listener
// on the port the kernel picked, and a start() that throws with the
// daemon's prefix and host:port when the host does not parse or another
// listener holds the port.
TEST(WireHardening, DaemonsThrowWhenTheyCannotListen) {
    std::uint16_t held = 0;
    const int holder = net::listen_tcp("127.0.0.1", 0, held);
    ASSERT_GE(holder, 0);
    EXPECT_NE(held, 0);
    EXPECT_NE(::fcntl(holder, F_GETFD) & FD_CLOEXEC, 0);

    const std::string dir = (std::filesystem::temp_directory_path() /
                             ("ehdoe-wire-listen-" + std::to_string(::getpid())))
                                .string();
    auto expect_refusal = [](auto& daemon, const std::string& message) {
        try {
            daemon.start();
            ADD_FAILURE() << "start() must throw: " << message;
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()).rfind(message, 0), 0u) << e.what();
        }
    };
    const std::vector<std::pair<std::string, std::uint16_t>> refused = {
        {"not-an-address", 0}, {"127.0.0.1", held}};
    for (const auto& [host, port] : refused) {
        const std::string where = "cannot listen on " + host + ":" + std::to_string(port);
        net::EvalServerOptions eo;
        eo.host = host;
        eo.port = port;
        net::EvalServer eval(identity_sim(), eo);
        expect_refusal(eval, "EvalServer: " + where);

        store::StoreServerOptions so;
        so.dir = dir;
        so.verbose = false;
        so.host = host;
        so.port = port;
        store::StoreServer store(so);
        expect_refusal(store, "StoreServer: " + where);
    }
    ::close(holder);
    std::filesystem::remove_all(dir);
}

// The pre-handshake deadline (net/tcp_server.hpp), on both daemons at once
// so the test costs one deadline. A silent peer is closed and not counted.
// A peer that sends its magic and stalls is closed and counted, and so is
// one that trickles its hello a byte every 2 s: no single read waits long,
// but the handshake as a whole misses the deadline.
TEST(WireHardening, BothDaemonsCutPeersThatMissTheHandshakeDeadline) {
    using Clock = std::chrono::steady_clock;
    auto eval = start_server(identity_sim(), "sim-id");
    const std::string dir = (std::filesystem::temp_directory_path() /
                             ("ehdoe-wire-deadline-" + std::to_string(::getpid())))
                                .string();
    store::StoreServerOptions so;
    so.dir = dir;
    so.verbose = false;
    store::StoreServer store(so);
    store.start();

    // Each daemon's whole hello, byte for byte.
    std::vector<unsigned char> eval_hello(net::kHandshakeMagic,
                                          net::kHandshakeMagic + sizeof net::kHandshakeMagic);
    const std::uint32_t version = net::kProtocolVersion;
    const auto* vp = reinterpret_cast<const unsigned char*>(&version);
    eval_hello.insert(eval_hello.end(), vp, vp + sizeof version);
    push_u64(eval_hello, 6);
    eval_hello.insert(eval_hello.end(), {'s', 'i', 'm', '-', 'i', 'd'});
    std::vector<unsigned char> store_hello(net::kStoreMagic,
                                           net::kStoreMagic + sizeof net::kStoreMagic);
    store_hello.insert(store_hello.end(), vp, vp + sizeof version);

    // The trickling peers send all but the last kTrickled bytes of their
    // hello at once (the magic included), then one byte every 2 s: the
    // last would land 2 s after the deadline.
    constexpr std::size_t kTrickled = 7;
    struct Peer {
        std::string what;
        int fd = -1;
    };
    std::vector<Peer> peers;
    std::vector<std::pair<int, const std::vector<unsigned char>*>> tricklers;
    const std::vector<std::pair<std::uint16_t, const std::vector<unsigned char>*>> daemons = {
        {eval->port(), &eval_hello}, {store.port(), &store_hello}};
    for (const auto& [port, hello] : daemons) {
        const std::string name = hello == &eval_hello ? "eval" : "store";
        peers.push_back({name + " silent", raw_connect(port)});
        peers.push_back({name + " stalled after the magic", raw_connect(port)});
        EXPECT_TRUE(net::write_all(peers.back().fd, hello->data(), sizeof net::kHandshakeMagic));
        peers.push_back({name + " trickling", raw_connect(port)});
        EXPECT_TRUE(net::write_all(peers.back().fd, hello->data(), hello->size() - kTrickled));
        tricklers.emplace_back(peers.back().fd, hello);
    }
    const Clock::time_point opened = Clock::now();

    std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    std::thread trickle([&] {
        for (std::size_t k = 0; k < kTrickled; ++k) {
            std::unique_lock<std::mutex> lock(mu);
            if (cv.wait_until(lock, opened + std::chrono::seconds(2 * k), [&] { return finished; }))
                return;
            for (const auto& [fd, hello] : tricklers) {
                const std::size_t at = hello->size() - kTrickled + k;
                ::send(fd, hello->data() + at, 1, MSG_NOSIGNAL);  // may find the peer gone
            }
        }
    });

    const Clock::time_point cutoff = opened + net::kHandshakeDeadline + std::chrono::seconds(3);
    for (const Peer& peer : peers) {
        pollfd p{peer.fd, POLLIN, 0};
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(cutoff - Clock::now());
        const bool woke = ::poll(&p, 1, static_cast<int>(std::max<long long>(0, left.count()))) > 0;
        char byte = 0;
        EXPECT_TRUE(woke && ::recv(peer.fd, &byte, 1, MSG_DONTWAIT) <= 0)
            << peer.what << ": not closed within the deadline + 3 s";
        EXPECT_GE(Clock::now() - opened, net::kHandshakeDeadline - std::chrono::seconds(1))
            << peer.what << ": closed before the deadline";
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        finished = true;
    }
    cv.notify_all();
    trickle.join();
    for (const Peer& peer : peers) ::close(peer.fd);

    // The closing daemon counts a late hello just after the peer sees the
    // close; give it a moment, then expect the two late peers and nothing
    // for the silent one.
    const Clock::time_point settle = Clock::now() + std::chrono::seconds(5);
    while ((eval->handshakes_rejected() < 2 || store.handshakes_rejected() < 2) &&
           Clock::now() < settle) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(eval->handshakes_rejected(), 2u);
    EXPECT_EQ(store.handshakes_rejected(), 2u);
    EXPECT_EQ(eval->connections_accepted(), 3u);
    EXPECT_EQ(store.connections_accepted(), 3u);

    // Both daemons keep serving.
    net::ShardStats stats;
    std::string error;
    EXPECT_TRUE(net::query_shard_stats(net::parse_endpoint(endpoint_of(*eval)), stats, error))
        << error;
    net::StoreStats store_stats;
    EXPECT_TRUE(store::query_store_stats("127.0.0.1:" + std::to_string(store.port()),
                                         store_stats, error))
        << error;
    store.stop();
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// RemoteBackend side.
// ---------------------------------------------------------------------------
namespace {

/// Drive one 3-point batch into a PoisonServer and expect the poisoned
/// connection to surface as a clean dead-endpoint error (all shards dead →
/// stranded points error in design order), never a hang or a bad_alloc.
void expect_clean_death(std::vector<unsigned char> poison) {
    PoisonServer server(std::move(poison));
    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint("127.0.0.1:" + std::to_string(server.port()))};
    ro.fingerprint = "";
    ro.redial_seconds = -1.0;
    net::RemoteBackend backend(ro);

    std::vector<Vector> points(3, Vector(2));
    try {
        backend.evaluate(points);
        FAIL() << "expected the poisoned endpoint to fail the batch";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("no live endpoints remain"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(backend.live_endpoints(), 0u);
}

}  // namespace

TEST(WireHardening, ClientDropsResultWithOversizedResponseCount) {
    std::vector<unsigned char> poison;
    push_u64(poison, net::kStatusOk);
    push_u64(poison, std::uint64_t{1} << 59);  // "this many named responses"
    expect_clean_death(std::move(poison));
}

TEST(WireHardening, ClientDropsResultWithOversizedNameLength) {
    std::vector<unsigned char> poison;
    push_u64(poison, net::kStatusOk);
    push_u64(poison, 1);                       // one response...
    push_u64(poison, std::uint64_t{1} << 59);  // ...whose name "fills" memory
    expect_clean_death(std::move(poison));
}

TEST(WireHardening, ClientDropsResultTruncatedMidFrame) {
    std::vector<unsigned char> poison;
    push_u64(poison, net::kStatusOk);
    push_u64(poison, 1);
    push_u64(poison, 3);
    poison.push_back('a');  // name cut short; the server closes after this
    expect_clean_death(std::move(poison));
}

TEST(WireHardening, ClientDropsResultWithUnknownStatus) {
    std::vector<unsigned char> poison;
    push_u64(poison, 42);  // neither ok nor error
    expect_clean_death(std::move(poison));
}

namespace {

/// Serve one stats connection with a hand-rolled OK reply: the full
/// counter body followed by `tail` (a poisoned histogram section), then
/// close. Expects query_shard_stats to fail cleanly — no allocation
/// blow-up, no hang.
void expect_stats_tail_failure(std::vector<unsigned char> tail) {
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    ASSERT_EQ(::listen(listen_fd, 4), 0);
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    const std::uint16_t port = ntohs(bound.sin_port);

    std::thread fake([&] {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) return;
        net::ConnectionKind kind;
        std::uint32_t version = 0;
        if (net::read_connection_magic(fd, kind) &&
            net::read_stats_request_body(fd, version)) {
            std::vector<unsigned char> reply;
            push_u64(reply, net::kStatusOk);
            const std::uint32_t served_version = net::kProtocolVersion;
            const auto* vp = reinterpret_cast<const unsigned char*>(&served_version);
            reply.insert(reply.end(), vp, vp + sizeof served_version);
            for (int c = 0; c < 7; ++c) push_u64(reply, 0);  // the counters
            const double uptime = 1.0;
            const auto* up = reinterpret_cast<const unsigned char*>(&uptime);
            reply.insert(reply.end(), up, up + sizeof uptime);
            reply.insert(reply.end(), tail.begin(), tail.end());
            net::write_all(fd, reply.data(), reply.size());
        }
        ::close(fd);
    });

    net::ShardStats stats;
    std::string error;
    EXPECT_FALSE(net::query_shard_stats(
        net::parse_endpoint("127.0.0.1:" + std::to_string(port)), stats, error));
    EXPECT_FALSE(error.empty());
    fake.join();
    ::close(listen_fd);
}

}  // namespace

// A stats reply claiming 2^59 histogram buckets: the bucket-count
// limit must fail the read before any reserve() is attempted.
TEST(WireHardening, StatsReplyWithOversizedHistogramCountFailsCleanly) {
    std::vector<unsigned char> tail;
    push_u64(tail, std::uint64_t{1} << 59);
    expect_stats_tail_failure(std::move(tail));
}

// A bucket index beyond the histogram's own resolution is corrupt, not
// large — rejected on the index field itself.
TEST(WireHardening, StatsReplyWithOutOfRangeBucketIndexFailsCleanly) {
    std::vector<unsigned char> tail;
    push_u64(tail, 1);                          // one bucket...
    push_u64(tail, net::kMaxHistogramBuckets);  // ...at an impossible index
    push_u64(tail, 7);
    expect_stats_tail_failure(std::move(tail));
}

// A histogram section cut short mid-entry fails the read, never hangs.
TEST(WireHardening, StatsReplyTruncatedMidHistogramFailsCleanly) {
    std::vector<unsigned char> tail;
    push_u64(tail, 3);  // claim three buckets, deliver one, vanish
    push_u64(tail, 2);
    push_u64(tail, 5);
    expect_stats_tail_failure(std::move(tail));
}

namespace {

void push_f64(std::vector<unsigned char>& bytes, double v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof v);
}

/// A valid-but-empty histogram section (0 buckets, 3 percentiles): the ring
/// poisons below must get *past* the histogram block to prove the ring
/// fields themselves are validated.
std::vector<unsigned char> empty_histogram_block() {
    std::vector<unsigned char> bytes;
    bytes.reserve(32);   // 4 fields; also quiets GCC 12's overflow false positive
    push_u64(bytes, 0);  // no histogram buckets
    push_f64(bytes, 0.0);
    push_f64(bytes, 0.0);
    push_f64(bytes, 0.0);
    return bytes;
}

}  // namespace

// A stats reply claiming 2^40 metric series: kMaxMetricSeries must fail
// the read before any allocation.
TEST(WireHardening, StatsReplyWithOversizedMetricSeriesCountFailsCleanly) {
    std::vector<unsigned char> tail = empty_histogram_block();
    push_u64(tail, 1'000'000);  // interval_us
    push_u64(tail, 0);          // first_seq
    push_u64(tail, std::uint64_t{1} << 40);
    expect_stats_tail_failure(std::move(tail));
}

// A series name longer than kMaxMetricNameLen is corrupt, not verbose.
TEST(WireHardening, StatsReplyWithOversizedMetricNameFailsCleanly) {
    std::vector<unsigned char> tail = empty_histogram_block();
    push_u64(tail, 1'000'000);
    push_u64(tail, 0);
    push_u64(tail, 1);                         // one series...
    push_u64(tail, std::uint64_t{1} << 50);    // ...with an absurd name
    expect_stats_tail_failure(std::move(tail));
}

// More ring rows than kMaxMetricSamples is corrupt — the ring is bounded
// by design.
TEST(WireHardening, StatsReplyWithOversizedMetricRowCountFailsCleanly) {
    std::vector<unsigned char> tail = empty_histogram_block();
    push_u64(tail, 1'000'000);
    push_u64(tail, 0);
    push_u64(tail, 1);  // one series, named "s"
    push_u64(tail, 1);
    tail.push_back('s');
    push_u64(tail, net::kMaxMetricSamples + 1);
    expect_stats_tail_failure(std::move(tail));
}

// A ring cut short mid-row fails the read, never hangs.
TEST(WireHardening, StatsReplyTruncatedMidMetricRowFailsCleanly) {
    std::vector<unsigned char> tail = empty_histogram_block();
    push_u64(tail, 1'000'000);
    push_u64(tail, 0);
    push_u64(tail, 1);
    push_u64(tail, 1);
    tail.push_back('s');
    push_u64(tail, 3);    // claim three rows...
    push_u64(tail, 555);  // ...deliver one timestamp, vanish
    expect_stats_tail_failure(std::move(tail));
}

// The store stats reply shares the ring codec; its reader must apply the
// same caps. A socketpair is transport enough to poison it directly.
TEST(WireHardening, StoreStatsReplyWithOversizedRingFailsCleanly) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::vector<unsigned char> poison;
    push_u64(poison, net::kStatusOk);
    for (int c = 0; c < 8; ++c) push_u64(poison, 0);  // the store counters
    push_f64(poison, 1.0);                            // uptime
    push_u64(poison, 1'000'000);                      // ring interval_us
    push_u64(poison, 0);                              // first_seq
    push_u64(poison, std::uint64_t{1} << 40);         // absurd series count
    ASSERT_TRUE(net::write_all(sv[0], poison.data(), poison.size()));
    ::shutdown(sv[0], SHUT_WR);

    net::StoreStats stats;
    std::uint64_t status = net::kStatusError;
    std::string message;
    EXPECT_FALSE(net::read_store_stats_reply(sv[1], status, stats, message));
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(WireHardening, StatsQueryFailsCleanlyOnOversizedRejectionMessage) {
    // A fake "server" that answers the stats request with an error frame
    // whose message length is absurd: query_shard_stats must return false,
    // not allocate or hang.
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    ASSERT_EQ(::listen(listen_fd, 4), 0);
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    const std::uint16_t port = ntohs(bound.sin_port);

    std::thread fake([&] {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) return;
        net::ConnectionKind kind;
        std::uint32_t version = 0;
        if (net::read_connection_magic(fd, kind) &&
            net::read_stats_request_body(fd, version)) {
            std::vector<unsigned char> poison;
            push_u64(poison, net::kStatusError);
            push_u64(poison, std::uint64_t{1} << 59);
            net::write_all(fd, poison.data(), poison.size());
        }
        ::close(fd);
    });

    net::ShardStats stats;
    std::string error;
    EXPECT_FALSE(net::query_shard_stats(
        net::parse_endpoint("127.0.0.1:" + std::to_string(port)), stats, error));
    EXPECT_FALSE(error.empty());
    fake.join();
    ::close(listen_fd);
}

// The stats reply carries the shard's eval-latency histogram and
// percentiles once it has served points.
TEST(WireHardening, StatsReplyCarriesLatencyHistogram) {
    auto server = start_server(identity_sim(), "sim-id");
    BatchRunner runner(identity_sim(), remote_options({endpoint_of(*server)}, "sim-id"));
    ASSERT_EQ(runner.run_design(kSpace, doe::full_factorial(2, 2)).simulations, 4u);

    const int fd = raw_connect(server->port());
    ASSERT_TRUE(net::write_stats_request(fd));
    std::uint64_t status = net::kStatusError;
    net::ShardStats stats;
    std::string message;
    ASSERT_TRUE(net::read_stats_reply(fd, status, stats, message));
    ::close(fd);
    EXPECT_EQ(status, net::kStatusOk);
    EXPECT_EQ(stats.points_served, 4u);
    ASSERT_FALSE(stats.latency_buckets.empty());
    std::uint64_t total = 0;
    for (const auto& [index, count] : stats.latency_buckets) {
        EXPECT_LT(index, net::kMaxHistogramBuckets);
        total += count;
    }
    EXPECT_EQ(total, 4u);  // one sample per served point
    // Percentiles are bucket floors: a sub-microsecond eval legitimately
    // reports 0, so only the ordering is asserted.
    EXPECT_GE(stats.latency_p95_us, stats.latency_p50_us);
    EXPECT_GE(stats.latency_p99_us, stats.latency_p95_us);
}
