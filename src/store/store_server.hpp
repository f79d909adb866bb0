// ehdoe/store/store_server.hpp
//
// The shared result store daemon: one SegmentLog served over TCP to every
// farm client that opens a store connection ("EHDOER" magic, at exactly
// net::kProtocolVersion).
// The client writes opcode-framed get-batch / put-batch / stats requests
// and reads the replies in order until either side closes.
//
// Concurrency model: the eval server's. A net::TcpServer
// (net/tcp_server.hpp) accepts and serves each connection on its own
// thread with blocking I/O, under the same pre-handshake deadline. The
// store's work per frame is an in-memory map probe or a buffered append,
// and every append serializes through the SegmentLog mutex regardless of
// how requests arrive, which is exactly the property that makes the store
// safe for racing farm clients (the lost-update window of client-side
// snapshot merging cannot exist when one process owns the file and applies
// puts one at a time).
//
// A malformed frame (bad opcode, insane length, truncated body) closes
// that connection; the log and every other connection are unaffected.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "core/metrics.hpp"
#include "net/tcp_server.hpp"
#include "store/segment_log.hpp"

namespace ehdoe::store {

struct StoreServerOptions {
    std::string host = "127.0.0.1";
    /// 0 picks an ephemeral port; read it back with port() after start().
    std::uint16_t port = 0;
    /// Segment directory (created if needed).
    std::string dir;
    /// Passed through to the SegmentLog.
    std::size_t max_segment_bytes = 8u << 20;
    bool verbose = true;
    /// Metrics sampling interval (core/metrics.hpp): > 0 runs a sampler
    /// thread appending one snapshot row per interval to the ring
    /// (core::metrics::kDefaultRingCapacity rows) the store-stats reply
    /// carries. 0 (default) disables sampling entirely.
    double metrics_interval_seconds = 0.0;
};

class StoreServer {
  public:
    /// Opens the segment log (recovery scan included). Throws on I/O error.
    explicit StoreServer(StoreServerOptions options);
    ~StoreServer();

    StoreServer(const StoreServer&) = delete;
    StoreServer& operator=(const StoreServer&) = delete;

    /// Bind + listen + start accepting. Throws when the address is taken or
    /// invalid.
    void start();
    /// Idempotent; joins every connection thread.
    void stop();

    /// The bound port (after start()).
    std::uint16_t port() const { return port_; }

    /// The storage engine, for tests and the --compact tool path.
    SegmentLog& log() { return *log_; }

    // Lifetime service counters (independent of the log's own counters).
    std::uint64_t connections_accepted() const { return server_.connections_accepted(); }
    std::uint64_t handshakes_rejected() const { return handshakes_rejected_.load(); }
    std::uint64_t gets_served() const { return gets_served_.load(); }
    std::uint64_t get_hits() const { return get_hits_.load(); }
    std::uint64_t puts_received() const { return puts_received_.load(); }
    std::uint64_t records_appended() const { return records_appended_.load(); }

    /// Force one metrics sample now (deterministic tests; no-op when
    /// metrics sampling is disabled).
    void sample_metrics_now();
    /// Snapshot of the metrics ring — what the store-stats reply carries
    /// (empty when sampling is disabled).
    core::metrics::RingSnapshot metrics_snapshot() const;

  private:
    void serve_connection(int fd, std::atomic<bool>& handshaken);
    void setup_metrics();

    StoreServerOptions options_;
    std::unique_ptr<SegmentLog> log_;
    std::uint16_t port_ = 0;
    std::chrono::steady_clock::time_point started_at_{};

    std::atomic<std::uint64_t> handshakes_rejected_{0};
    std::atomic<std::uint64_t> gets_served_{0};
    std::atomic<std::uint64_t> get_hits_{0};
    std::atomic<std::uint64_t> puts_received_{0};
    std::atomic<std::uint64_t> records_appended_{0};

    /// Health-plane ring, sampled by its own thread so an idle store keeps
    /// sampling. Null when sampling is disabled.
    std::unique_ptr<core::metrics::Registry> metrics_;
    std::unique_ptr<core::metrics::Sampler> metrics_sampler_;

    /// Its connection threads use every member above.
    net::TcpServer server_;
};

}  // namespace ehdoe::store
