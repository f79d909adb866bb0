#include "store/store_client.hpp"

#include <unistd.h>

#include <stdexcept>

#include "net/remote_backend.hpp"

namespace ehdoe::store {

using namespace ehdoe::net;

StoreClient::StoreClient(const std::string& host, std::uint16_t port, int timeout_seconds)
    : in_(connect_tcp(Endpoint{host, port}, timeout_seconds)),
      endpoint_(host + ":" + std::to_string(port)) {
    std::uint64_t status = kStatusError;
    std::string message;
    if (!write_store_hello(in_.fd()) || !read_welcome(in_, status, message)) {
        ::close(in_.fd());
        throw std::runtime_error("store " + endpoint_ + ": handshake transport failure");
    }
    if (status != kStatusOk) {
        ::close(in_.fd());
        throw std::runtime_error("store " + endpoint_ + " refused the handshake: " + message);
    }
}

StoreClient::~StoreClient() { ::close(in_.fd()); }

std::vector<StoreLookup> StoreClient::get(const std::vector<std::string>& keys) {
    std::vector<StoreLookup> lookups;
    if (keys.empty()) return lookups;
    if (!write_store_get_request(in_.fd(), keys, scratch_) ||
        !read_store_get_reply(in_, keys.size(), lookups))
        throw std::runtime_error("store " + endpoint_ + ": get-batch failed");
    return lookups;
}

std::uint64_t StoreClient::put(const std::vector<StoreEntry>& entries) {
    if (entries.empty()) return 0;
    std::uint64_t status = kStatusError;
    std::uint64_t appended = 0;
    std::string message;
    if (!write_store_put_request(in_.fd(), entries, scratch_) ||
        !read_store_put_reply(in_, status, appended, message))
        throw std::runtime_error("store " + endpoint_ + ": put-batch failed");
    if (status != kStatusOk)
        throw std::runtime_error("store " + endpoint_ + " rejected put-batch: " + message);
    return appended;
}

StoreStats StoreClient::stats() {
    StoreStats stats;
    std::uint64_t status = kStatusError;
    std::string message;
    if (!write_store_stats_request(in_.fd()) ||
        !read_store_stats_reply(in_, status, stats, message))
        throw std::runtime_error("store " + endpoint_ + ": stats round-trip failed");
    if (status != kStatusOk)
        throw std::runtime_error("store " + endpoint_ + " rejected stats: " + message);
    return stats;
}

bool query_store_stats(const std::string& endpoint, net::StoreStats& stats,
                       std::string& error) {
    try {
        const Endpoint ep = parse_endpoint(endpoint);
        StoreClient client(ep.host, ep.port, /*timeout_seconds=*/5);
        stats = client.stats();
        return true;
    } catch (const std::exception& e) {
        error = e.what();
        return false;
    }
}

}  // namespace ehdoe::store
