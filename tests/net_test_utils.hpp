// Shared rig of the net test suite (test_remote_backend,
// test_farm_elasticity, test_wire_hardening): loopback eval-server
// construction, endpoint formatting, scratch files, and the FlakyProxy
// fault injector — a loopback TCP relay that can delay, blackhole or sever
// live connections on command, so shard-death and network-fault paths are
// exercised without killing real servers.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "doe/runner.hpp"
#include "net/eval_server.hpp"

namespace ehdoe::net_test {

/// Start a loopback eval-server; `port` 0 binds an ephemeral port (read it
/// back via server->port()), a fixed port restarts a "machine" in place.
inline std::unique_ptr<net::EvalServer> start_server(core::Simulation sim,
                                                     const std::string& fingerprint,
                                                     std::size_t workers = 2,
                                                     std::uint16_t port = 0) {
    net::EvalServerOptions o;
    o.port = port;
    o.workers = workers;
    o.fingerprint = fingerprint;
    auto server = std::make_unique<net::EvalServer>(std::move(sim), o);
    server->start();
    return server;
}

inline std::string endpoint_of(const net::EvalServer& server) {
    return "127.0.0.1:" + std::to_string(server.port());
}

inline doe::RunnerOptions remote_options(const std::vector<std::string>& endpoints,
                                         const std::string& fingerprint) {
    doe::RunnerOptions o;
    o.endpoints = endpoints;
    o.cache_fingerprint = fingerprint;
    return o;
}

/// Raw-socket connect to a loopback port, for wire-level test clients that
/// speak (or deliberately mis-speak) the protocol by hand.
inline int raw_connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    return fd;
}

/// A scratch file path that dies with the test.
class TempFile {
public:
    explicit TempFile(const std::string& stem) {
        path_ = (std::filesystem::temp_directory_path() /
                 (stem + "-" + std::to_string(::getpid()) + ".ehcache"))
                    .string();
        std::remove(path_.c_str());
    }
    ~TempFile() {
        std::remove(path_.c_str());
        std::remove((path_ + ".lock").c_str());  // PersistentCache's save lock
    }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

/// Fault-injection TCP relay: listens on an ephemeral loopback port and
/// forwards byte streams to one upstream endpoint. Faults are injected on
/// command, while connections are live:
///
///  * set_delay_ms(d)   — stall every forwarded chunk by d milliseconds
///                        (a slow or congested link);
///  * set_blackhole(on) — keep connections open but silently discard all
///                        forwarded bytes (packets "dropped" both ways);
///  * sever()           — cut every active relay mid-stream (both peers
///                        observe EOF/RST, like a yanked cable);
///  * set_refuse(on)    — accept then immediately close new connections
///                        (the endpoint is up but the service is not).
///
/// New connections keep relaying after sever(), so a re-dialing client can
/// reconnect *through* the proxy once the "cable" is plugged back in.
class FlakyProxy {
public:
    FlakyProxy(const std::string& upstream_host, std::uint16_t upstream_port)
        : upstream_host_(upstream_host), upstream_port_(upstream_port) {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0) throw std::runtime_error("FlakyProxy: socket failed");
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
            ::listen(listen_fd_, 16) != 0) {
            ::close(listen_fd_);
            throw std::runtime_error("FlakyProxy: cannot listen on loopback");
        }
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
        port_ = ntohs(bound.sin_port);
        accept_thread_ = std::thread([this] { accept_loop(); });
    }

    ~FlakyProxy() {
        stopping_.store(true);
        ::shutdown(listen_fd_, SHUT_RDWR);
        if (accept_thread_.joinable()) accept_thread_.join();
        ::close(listen_fd_);
        sever();
        std::lock_guard<std::mutex> lock(relays_mutex_);
        for (Relay& r : relays_) {
            if (r.up.joinable()) r.up.join();
            if (r.down.joinable()) r.down.join();
            ::close(r.client_fd);
            ::close(r.upstream_fd);
        }
    }

    std::uint16_t port() const { return port_; }
    std::string endpoint() const { return "127.0.0.1:" + std::to_string(port_); }

    void set_delay_ms(int ms) { delay_ms_.store(ms); }
    void set_blackhole(bool on) { blackhole_.store(on); }
    void set_refuse(bool on) { refuse_.store(on); }

    /// Cut every active relay now; peers observe EOF on their next I/O.
    void sever() {
        std::lock_guard<std::mutex> lock(relays_mutex_);
        for (Relay& r : relays_) {
            ::shutdown(r.client_fd, SHUT_RDWR);
            ::shutdown(r.upstream_fd, SHUT_RDWR);
        }
    }

    /// Relays accepted over the proxy's lifetime (severed ones included).
    std::size_t relays_opened() const {
        std::lock_guard<std::mutex> lock(relays_mutex_);
        return relays_.size();
    }

private:
    struct Relay {
        int client_fd = -1;
        int upstream_fd = -1;
        std::thread up;    ///< client -> upstream
        std::thread down;  ///< upstream -> client
    };

    void accept_loop() {
        for (;;) {
            const int client = ::accept(listen_fd_, nullptr, nullptr);
            if (client < 0) {
                if (stopping_.load()) return;
                if (errno == EINTR || errno == ECONNABORTED) continue;
                return;
            }
            if (stopping_.load() || refuse_.load()) {
                ::close(client);
                if (stopping_.load()) return;
                continue;
            }
            const int upstream = connect_upstream();
            if (upstream < 0) {
                ::close(client);
                continue;
            }
            std::lock_guard<std::mutex> lock(relays_mutex_);
            relays_.emplace_back();
            Relay& r = relays_.back();
            r.client_fd = client;
            r.upstream_fd = upstream;
            r.up = std::thread([this, client, upstream] { pump(client, upstream); });
            r.down = std::thread([this, upstream, client] { pump(upstream, client); });
        }
    }

    int connect_upstream() const {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return -1;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(upstream_port_);
        if (::inet_pton(AF_INET, upstream_host_.c_str(), &addr.sin_addr) != 1 ||
            ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
            ::close(fd);
            return -1;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        return fd;
    }

    /// One direction of one relay; exits when either side dies (and takes
    /// the other direction down with it).
    void pump(int src, int dst) {
        unsigned char buf[4096];
        for (;;) {
            const ssize_t r = ::recv(src, buf, sizeof buf, 0);
            if (r <= 0) {
                if (r < 0 && errno == EINTR) continue;
                break;
            }
            const int delay = delay_ms_.load();
            if (delay > 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay));
            if (blackhole_.load()) continue;  // the bytes vanish in transit
            if (::send(dst, buf, static_cast<std::size_t>(r), MSG_NOSIGNAL) !=
                static_cast<ssize_t>(r))
                break;
        }
        ::shutdown(src, SHUT_RDWR);
        ::shutdown(dst, SHUT_RDWR);
    }

    std::string upstream_host_;
    std::uint16_t upstream_port_ = 0;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> refuse_{false};
    std::atomic<bool> blackhole_{false};
    std::atomic<int> delay_ms_{0};
    std::thread accept_thread_;
    mutable std::mutex relays_mutex_;
    std::list<Relay> relays_;
};

}  // namespace ehdoe::net_test
