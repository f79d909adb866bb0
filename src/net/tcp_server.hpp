// ehdoe/net/tcp_server.hpp
//
// The daemons' TCP listener and their one accept-and-serve skeleton. The
// eval server (net/eval_server.hpp) and the store server
// (store/store_server.hpp) each run a TcpServer: one accept thread, and one
// thread per connection that serves it with the blocking frame readers and
// writers of net/wire.hpp until the peer leaves.
//
// A connection's thread only shuts its socket down when it is done. The
// descriptor stays open until whoever joins the thread closes it: the
// accept thread, which reaps finished connections each time it wakes, or
// stop(). So nothing ever shuts down or closes a descriptor number the
// process may have reused.
//
// Every peer must pass its handshake within kHandshakeDeadline of being
// accepted. The deadline is one total, not a per-read timeout: the accept
// thread shuts down a connection whose handshake is late, so a peer that
// trickles bytes is cut as surely as a silent one. Past the handshake a
// connection may idle as long as it likes (an eval client idles between
// batches).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <thread>

namespace ehdoe::net {

/// The one TCP listener of the daemons and the exporter: a close-on-exec
/// socket with SO_REUSEADDR, bound to `host` (an IPv4 address) and `port`
/// (0 = an ephemeral port) and listening with backlog 64. Stores the port
/// actually bound in `bound_port` and returns the descriptor. Throws
/// std::runtime_error naming host:port when the host does not parse or
/// socket, bind or listen fails; nothing stays open after a throw.
int listen_tcp(const std::string& host, std::uint16_t port, std::uint16_t& bound_port);

/// How long an accepted peer has, in total, to pass its handshake.
inline constexpr std::chrono::seconds kHandshakeDeadline{10};

class TcpServer {
public:
    /// Serves one accepted connection on its own thread and returns when the
    /// connection is done; it must not close `fd`. It sets `handshaken` once
    /// the peer has passed the handshake, which lifts the deadline. A
    /// handler that throws ends its own connection only (the exception's
    /// message goes to stderr).
    using Handler = std::function<void(int fd, std::atomic<bool>& handshaken)>;

    TcpServer() = default;
    /// stop()s if still running.
    ~TcpServer();

    TcpServer(const TcpServer&) = delete;
    TcpServer& operator=(const TcpServer&) = delete;

    /// Take over `listen_fd` (from listen_tcp) and start the accept thread.
    void start(int listen_fd, Handler handler);
    /// Shut the listener down, join the accept thread, and only then close
    /// the listener; then shut every connection down, join its thread and
    /// close its descriptor. Idempotent.
    void stop();
    bool running() const { return listen_fd_ >= 0; }

    /// Connections accepted since start() (readable from any thread).
    std::uint64_t connections_accepted() const { return accepted_.load(); }

private:
    struct Connection {
        int fd = -1;
        std::chrono::steady_clock::time_point deadline{};
        std::atomic<bool> handshaken{false};
        std::atomic<bool> done{false};
        bool cut = false;  ///< shut down at the deadline
        std::thread thread;
    };

    void accept_loop();
    /// Join and close finished connections and cut those past the
    /// deadline; returns the poll timeout until the next deadline, in ms
    /// (-1 when no handshake is pending).
    int sweep();

    Handler handler_;
    int listen_fd_ = -1;
    std::atomic<bool> stopping_{false};
    /// Touched by the accept thread while it runs and by stop() after it
    /// joined it, so it needs no lock.
    std::list<Connection> connections_;
    std::atomic<std::uint64_t> accepted_{0};
    std::thread accept_thread_;
};

}  // namespace ehdoe::net
