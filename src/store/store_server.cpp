#include "store/store_server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

#include "core/telemetry.hpp"
#include "net/wire.hpp"

namespace ehdoe::store {

using namespace ehdoe::net;

StoreServer::StoreServer(StoreServerOptions options) : options_(std::move(options)) {
    SegmentLogOptions lo;
    lo.max_segment_bytes = options_.max_segment_bytes;
    lo.verbose = options_.verbose;
    log_ = std::make_unique<SegmentLog>(options_.dir, lo);
}

StoreServer::~StoreServer() { stop(); }

void StoreServer::start() {
    if (listen_fd_ >= 0) return;
    try {
        listen_fd_ = listen_tcp(options_.host, options_.port, port_);
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(std::string("StoreServer: ") + e.what());
    }
    started_at_ = std::chrono::steady_clock::now();
    stopping_.store(false);
    setup_metrics();
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void StoreServer::setup_metrics() {
    if (options_.metrics_interval_seconds <= 0.0) return;
    metrics_ = std::make_unique<core::metrics::Registry>();
    metrics_->set_interval_us(static_cast<std::uint64_t>(
        options_.metrics_interval_seconds * 1e6));
    metrics_->register_series("keys", [this] {
        return static_cast<double>(log_->size());
    });
    metrics_->register_series("segments", [this] {
        return static_cast<double>(log_->segment_count());
    });
    metrics_->register_series("gets_served", [this] {
        return static_cast<double>(gets_served_.load());
    });
    metrics_->register_series("get_hits", [this] {
        return static_cast<double>(get_hits_.load());
    });
    metrics_->register_series("puts_received", [this] {
        return static_cast<double>(puts_received_.load());
    });
    metrics_->register_series("records_appended", [this] {
        return static_cast<double>(records_appended_.load());
    });
    metrics_sampler_ = std::make_unique<core::metrics::Sampler>(
        *metrics_, options_.metrics_interval_seconds);
}

void StoreServer::sample_metrics_now() {
    if (!metrics_) return;
    metrics_->sample_now(core::telemetry::now_us());
}

core::metrics::RingSnapshot StoreServer::metrics_snapshot() const {
    if (!metrics_) return {};
    return metrics_->snapshot();
}

void StoreServer::stop() {
    if (listen_fd_ < 0) return;
    stopping_.store(true);
    // Break the blocking accept(): shutdown() wakes it, close() frees it.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    metrics_sampler_.reset();
    if (accept_thread_.joinable()) accept_thread_.join();
    listen_fd_ = -1;
    std::vector<Connection> connections;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        connections.swap(connections_);
    }
    for (Connection& conn : connections) {
        // Wake any connection blocked in recv, then close the fd its thread
        // has let go of.
        ::shutdown(conn.fd, SHUT_RDWR);
        if (conn.thread.joinable()) conn.thread.join();
        ::close(conn.fd);
    }
}

void StoreServer::accept_loop() {
    for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            if (stopping_.load()) return;
            if (errno == EINTR || errno == ECONNABORTED) continue;
            return;  // listener is gone
        }
        if (stopping_.load()) {
            ::close(fd);
            return;
        }
        connections_accepted_.fetch_add(1);
        auto done = std::make_shared<std::atomic<bool>>(false);
        std::lock_guard<std::mutex> lock(connections_mutex_);
        // Opportunistically reap finished connections so a long-lived
        // server does not accumulate one joinable thread per past client.
        for (auto it = connections_.begin(); it != connections_.end();) {
            if (it->done->load()) {
                if (it->thread.joinable()) it->thread.join();
                ::close(it->fd);
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
        Connection conn;
        conn.fd = fd;
        conn.done = done;
        // The thread only shuts its socket down; whoever joins it closes
        // the fd, so stop() never shuts down a number the process reused.
        conn.thread = std::thread([this, fd, done] {
            serve_connection(fd);
            ::shutdown(fd, SHUT_RDWR);
            done->store(true);
        });
        connections_.push_back(std::move(conn));
    }
}

void StoreServer::serve_connection(int fd) {
    ConnectionKind kind = ConnectionKind::Unknown;
    if (!read_connection_magic(fd, kind) || kind != ConnectionKind::Store) {
        handshakes_rejected_.fetch_add(1);
        return;
    }
    std::uint32_t version = 0;
    if (!read_store_hello_body(fd, version)) {
        handshakes_rejected_.fetch_add(1);
        return;
    }
    if (version != kProtocolVersion) {
        handshakes_rejected_.fetch_add(1);
        write_welcome(fd, kStatusError,
                      "store server speaks " + std::to_string(kProtocolVersion) +
                          ", client sent " + std::to_string(version));
        return;
    }
    if (!write_welcome(fd, kStatusOk, "")) return;

    std::vector<unsigned char> scratch;
    std::vector<std::string> keys;
    std::vector<StoreEntry> entries;
    std::vector<StoreLookup> lookups;
    for (;;) {
        std::uint64_t opcode = 0;
        if (!read_store_opcode(fd, opcode)) return;  // EOF: clean shutdown
        switch (opcode) {
            case kStoreOpGet: {
                if (!read_store_get_request_body(fd, keys)) return;
                lookups.clear();
                lookups.resize(keys.size());
                std::uint64_t hits = 0;
                for (std::size_t i = 0; i < keys.size(); ++i) {
                    lookups[i].found = log_->get(keys[i], lookups[i].responses);
                    if (lookups[i].found) ++hits;
                }
                gets_served_.fetch_add(keys.size());
                get_hits_.fetch_add(hits);
                if (!write_store_get_reply(fd, lookups, scratch)) return;
                break;
            }
            case kStoreOpPut: {
                if (!read_store_put_request_body(fd, entries)) return;
                puts_received_.fetch_add(entries.size());
                std::uint64_t appended = 0;
                std::uint64_t status = kStatusOk;
                std::string message;
                try {
                    for (const StoreEntry& e : entries) {
                        if (log_->put(e.key, e.responses)) ++appended;
                    }
                } catch (const std::exception& e) {
                    status = kStatusError;
                    message = e.what();
                }
                records_appended_.fetch_add(appended);
                if (!write_store_put_reply(fd, status, appended, message)) return;
                if (status != kStatusOk) return;  // a failing log is not retryable here
                break;
            }
            case kStoreOpStats: {
                StoreStats stats;
                const SegmentLogCounters c = log_->counters();
                stats.keys = log_->size();
                stats.segments = log_->segment_count();
                stats.quarantined_segments = c.quarantined_segments;
                stats.gets_served = gets_served_.load();
                stats.get_hits = get_hits_.load();
                stats.puts_received = puts_received_.load();
                stats.records_appended = records_appended_.load();
                stats.connections_accepted = connections_accepted_.load();
                stats.uptime_seconds =
                    std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                  started_at_)
                        .count();
                if (metrics_) stats.metrics = metrics_->snapshot();
                if (!write_store_stats_reply(fd, kStatusOk, stats, "")) return;
                break;
            }
            default:
                return;  // unknown opcode: broken peer, drop the connection
        }
    }
}

}  // namespace ehdoe::store
