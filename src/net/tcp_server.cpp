#include "net/tcp_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace ehdoe::net {

int listen_tcp(const std::string& host, std::uint16_t port, std::uint16_t& bound_port) {
    const std::string where = "cannot listen on " + host + ":" + std::to_string(port);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        throw std::runtime_error(where + ": bad host");
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error(where + ": " + std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 64) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error(where + ": " + std::strerror(err));
    }
    bound_port = ntohs(bound.sin_port);
    return fd;
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::start(int listen_fd, Handler handler) {
    handler_ = std::move(handler);
    listen_fd_ = listen_fd;
    stopping_.store(false);
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void TcpServer::stop() {
    if (listen_fd_ < 0) return;
    stopping_.store(true);
    // shutdown() wakes the accept thread's poll; the descriptor stays open
    // until the join, so the thread never polls or accepts a reused number.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
    // Wake every connection first, so they wind down together.
    for (Connection& conn : connections_) ::shutdown(conn.fd, SHUT_RDWR);
    for (Connection& conn : connections_) {
        conn.thread.join();
        ::close(conn.fd);
    }
    connections_.clear();
}

void TcpServer::accept_loop() {
    while (!stopping_.load()) {
        pollfd listener{listen_fd_, POLLIN, 0};
        if (::poll(&listener, 1, sweep()) <= 0 || stopping_.load()) continue;
        // A failed accept (a peer that reset first, a signal, a momentary
        // descriptor shortage) leaves the daemon serving: poll again.
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) continue;
        accepted_.fetch_add(1);
        Connection& conn = connections_.emplace_back();
        conn.fd = fd;
        conn.deadline = std::chrono::steady_clock::now() + kHandshakeDeadline;
        try {
            conn.thread = std::thread([this, &conn] {
                try {
                    handler_(conn.fd, conn.handshaken);
                } catch (const std::exception& e) {
                    // Only this connection fails; the daemon keeps serving.
                    std::fprintf(stderr, "[ehdoe-server] connection dropped: %s\n", e.what());
                }
                ::shutdown(conn.fd, SHUT_RDWR);
                conn.done.store(true);
            });
        } catch (const std::system_error& e) {
            // No thread to serve the peer (the process is at its thread
            // limit): turn it away and keep accepting.
            std::fprintf(stderr, "[ehdoe-server] connection refused: %s\n", e.what());
            ::close(fd);
            connections_.pop_back();
        }
    }
}

int TcpServer::sweep() {
    const auto now = std::chrono::steady_clock::now();
    auto next = std::chrono::steady_clock::time_point::max();
    for (auto it = connections_.begin(); it != connections_.end();) {
        if (it->done.load()) {
            it->thread.join();
            ::close(it->fd);
            it = connections_.erase(it);
            continue;
        }
        if (!it->cut && !it->handshaken.load()) {
            if (now >= it->deadline) {
                ::shutdown(it->fd, SHUT_RDWR);
                it->cut = true;
            } else {
                next = std::min(next, it->deadline);
            }
        }
        ++it;
    }
    if (next == std::chrono::steady_clock::time_point::max()) return -1;
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(next - now);
    return static_cast<int>(wait.count()) + 1;  // round up past the deadline
}

}  // namespace ehdoe::net
