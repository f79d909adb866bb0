// ehdoe/store/store_client.hpp
//
// Blocking client for one store connection: connect + store hello on
// construction, then get/put/stats round-trips until destruction. All I/O
// is time-bounded (SO_RCVTIMEO/SO_SNDTIMEO), so a wedged store degrades in
// seconds, not the kernel's TCP patience. Every method throws
// std::runtime_error on transport or protocol failure — callers that must
// survive a dying store (StoreBackend) catch and fall through.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace ehdoe::store {

class StoreClient {
  public:
    /// Connects (net::connect_tcp, the eval client's dialer) and
    /// handshakes at kProtocolVersion; throws when the endpoint is
    /// unreachable, is not a store server, or refuses the version.
    StoreClient(const std::string& host, std::uint16_t port, int timeout_seconds = 30);
    ~StoreClient();

    StoreClient(const StoreClient&) = delete;
    StoreClient& operator=(const StoreClient&) = delete;

    /// One get-batch round trip; the reply has exactly keys.size() entries.
    std::vector<net::StoreLookup> get(const std::vector<std::string>& keys);
    /// One put-batch round trip; returns how many records the server newly
    /// appended (duplicates are acknowledged without appending).
    std::uint64_t put(const std::vector<net::StoreEntry>& entries);
    net::StoreStats stats();

    const std::string& endpoint() const { return endpoint_; }

  private:
    net::Reader in_;  ///< the socket, in_.fd(), and its one Reader, from the handshake on
    std::string endpoint_;
    std::vector<unsigned char> scratch_;
};

/// One-shot stats poll of a store endpoint ("HOST:PORT", or ":PORT" for
/// loopback — net::parse_endpoint): dial, stats round-trip, close. False
/// with a diagnosis in `error` on any failure — the monitoring-path shape
/// (ehdoe-farm), never throws.
bool query_store_stats(const std::string& endpoint, net::StoreStats& stats,
                       std::string& error);

}  // namespace ehdoe::store
