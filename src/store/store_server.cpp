#include "store/store_server.hpp"

#include <stdexcept>
#include <string>
#include <vector>

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
    if (server_.running()) return;
    int listen_fd = -1;
    try {
        listen_fd = listen_tcp(options_.host, options_.port, port_);
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(std::string("StoreServer: ") + e.what());
    }
    started_at_ = std::chrono::steady_clock::now();
    server_.start(listen_fd, [this](int fd, std::atomic<bool>& handshaken) {
        serve_connection(fd, handshaken);
    });
}

void StoreServer::stop() { server_.stop(); }

void StoreServer::serve_connection(int fd, std::atomic<bool>& handshaken) {
    // A peer that leaves before a full magic is a probe, not a rejection;
    // an alien magic or a hello cut short is.
    Reader in(fd);
    ConnectionKind kind = ConnectionKind::Unknown;
    if (!read_connection_magic(in, kind)) return;
    std::uint32_t version = 0;
    if (kind != ConnectionKind::Store || !read_version(in, version)) {
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
    handshaken.store(true);  // lifts the pre-handshake deadline

    std::vector<unsigned char> scratch;
    std::vector<std::string> keys;
    std::vector<StoreEntry> entries;
    std::vector<StoreLookup> lookups;
    for (;;) {
        std::uint64_t opcode = 0;
        if (!in.read_u64(opcode)) return;  // EOF: clean shutdown
        switch (opcode) {
            case kStoreOpGet: {
                if (!read_store_get_request_body(in, keys)) return;
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
                if (!read_store_put_request_body(in, entries)) return;
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
                stats.connections_accepted = server_.connections_accepted();
                stats.uptime_seconds =
                    std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                  started_at_)
                        .count();
                if (!write_store_stats_reply(fd, kStatusOk, stats, "")) return;
                break;
            }
            default:
                return;  // unknown opcode: broken peer, drop the connection
        }
    }
}

}  // namespace ehdoe::store
