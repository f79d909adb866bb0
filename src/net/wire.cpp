#include "net/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>

namespace ehdoe::net {

Reader::Reader(int fd) : fd_(fd), buffer_(new unsigned char[kReaderBufferBytes]) {}

bool Reader::read_exact(void* out, std::size_t len) {
    auto* p = static_cast<unsigned char*>(out);
    while (len > 0) {
        if (begin_ < end_) {
            const std::size_t take = std::min(len, end_ - begin_);
            std::memcpy(p, buffer_.get() + begin_, take);
            begin_ += take;
            p += take;
            len -= take;
            continue;
        }
        // Empty: refill with whatever the socket holds, up to the buffer.
        ssize_t r = 0;
        do {
            r = ::recv(fd_, buffer_.get(), kReaderBufferBytes, 0);
        } while (r < 0 && errno == EINTR);
        if (r <= 0) return false;  // EOF or hard error: the peer is gone
        begin_ = 0;
        end_ = static_cast<std::size_t>(r);
    }
    return true;
}

bool write_all(int fd, const void* buf, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(buf);
    while (len > 0) {
        // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not SIGPIPE.
        const ssize_t w = ::send(fd, p, len, MSG_NOSIGNAL);
        if (w > 0) {
            p += w;
            len -= static_cast<std::size_t>(w);
            continue;
        }
        if (w < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

bool write_u64(int fd, std::uint64_t v) { return write_all(fd, &v, sizeof v); }

// ---------------------------------------------------------------------------
// The field codec. Every frame is spelled in these fields, and each field
// has one encoder (put_*, appending to the frame's buffer, or opener(),
// which starts one) and one decoder (get_*, pulling from the connection's
// Reader, or the public read_connection_magic and read_version).
// ---------------------------------------------------------------------------

namespace {

using Bytes = std::vector<unsigned char>;

void put_bytes(Bytes& out, const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    out.insert(out.end(), p, p + len);
}

/// A fixed-width field (u32, u64, f64): its raw host-endian bytes.
template <typename T>
void put(Bytes& out, const T& v) {
    put_bytes(out, &v, sizeof v);
}

template <typename T>
bool get(Reader& in, T& v) {
    return in.read_exact(&v, sizeof v);
}

/// Cumulative pre-allocation budget for one frame (for a batch result, one
/// response): every length a decoder is about to allocate is charged
/// against the remaining budget, so a frame's *total* claimed size is
/// bounded by kSaneLimit even when each individual field passes its own
/// check.
class FrameBudget {
  public:
    bool charge(std::uint64_t bytes) {
        if (bytes > remaining_) return false;
        remaining_ -= bytes;
        return true;
    }

  private:
    std::uint64_t remaining_ = kSaneLimit;
};

/// string := u64 len, len bytes. The decoder checks the length against
/// `cap` and the frame's budget before allocating.
void put_string(Bytes& out, std::string_view s) {
    put(out, static_cast<std::uint64_t>(s.size()));
    put_bytes(out, s.data(), s.size());
}

bool get_string(Reader& in, std::string& s, FrameBudget& budget,
                std::uint64_t cap = kSaneLimit) {
    std::uint64_t len = 0;
    if (!get(in, len) || len > cap || !budget.charge(len)) return false;
    s.assign(static_cast<std::size_t>(len), '\0');
    return in.read_exact(s.data(), s.size());
}

/// responses := u64 n, n x { string name, f64 value } — an eval result's
/// payload and a store value alike.
void put_responses(Bytes& out, const ResponseMap& responses) {
    put(out, static_cast<std::uint64_t>(responses.size()));
    for (const auto& [name, value] : responses) {
        put_string(out, name);
        put(out, value);
    }
}

bool get_responses(Reader& in, ResponseMap& responses, FrameBudget& budget) {
    std::uint64_t n = 0;
    if (!get(in, n) || n > kSaneLimit || !budget.charge(n * sizeof(double))) return false;
    for (std::uint64_t j = 0; j < n; ++j) {
        std::string name;
        double value = 0.0;
        if (!get_string(in, name, budget) || !get(in, value)) return false;
        responses.emplace(std::move(name), value);
    }
    return true;
}

/// The status envelope every reply opens with: u64 status, then the
/// message string unless the status is OK. An OK status is followed by
/// the frame's own body; a message is the rest of its frame.
void put_status(Bytes& out, std::uint64_t status, std::string_view message) {
    put(out, status);
    if (status != kStatusOk) put_string(out, message);
}

bool get_status(Reader& in, std::uint64_t& status, std::string& message) {
    message.clear();
    FrameBudget budget;
    return get(in, status) && (status == kStatusOk || get_string(in, message, budget));
}

/// The connection opener: the connection kind's 6-byte magic, u32 protocol
/// version.
Bytes opener(const char (&magic)[6], std::uint32_t version) {
    Bytes out;
    out.reserve(sizeof magic + sizeof version);  // also quiets GCC 12's -Warray-bounds
    put_bytes(out, magic, sizeof magic);
    put(out, version);
    return out;
}

/// The metrics-ring block shared by the eval and store stats replies.
/// Encoding clamps to the wire caps (a correctly configured server never
/// hits them: the caps exist for the *reader*, which validates every
/// length before allocating).
void put_ring(Bytes& out, const core::metrics::RingSnapshot& ring) {
    put(out, ring.interval_us);
    if (ring.series.size() > kMaxMetricSeries) {
        // Misconfigured registry: send an empty ring rather than a frame
        // every honest reader must reject.
        put(out, ring.first_seq);
        put(out, std::uint64_t{0});
        put(out, std::uint64_t{0});
        return;
    }
    const std::size_t skip =
        ring.rows.size() > kMaxMetricSamples ? ring.rows.size() - kMaxMetricSamples : 0;
    put(out, ring.first_seq + skip);
    put(out, static_cast<std::uint64_t>(ring.series.size()));
    for (const std::string& name : ring.series) {
        put_string(out, std::string_view(name).substr(0, kMaxMetricNameLen));
    }
    put(out, static_cast<std::uint64_t>(ring.rows.size() - skip));
    for (std::size_t r = skip; r < ring.rows.size(); ++r) {
        const core::metrics::RingSnapshot::Row& row = ring.rows[r];
        put(out, row.t_us);
        for (std::size_t c = 0; c < ring.series.size(); ++c) {
            put(out, c < row.values.size() ? row.values[c] : 0.0);
        }
    }
}

/// Every length is checked against its cap before any allocation (the
/// histogram discipline).
bool get_ring(Reader& in, core::metrics::RingSnapshot& ring) {
    ring = core::metrics::RingSnapshot{};
    FrameBudget budget;
    std::uint64_t n_series = 0;
    if (!get(in, ring.interval_us) || !get(in, ring.first_seq) || !get(in, n_series) ||
        n_series > kMaxMetricSeries)
        return false;
    ring.series.resize(static_cast<std::size_t>(n_series));
    for (std::string& name : ring.series) {
        if (!get_string(in, name, budget, kMaxMetricNameLen)) return false;
    }
    std::uint64_t n_rows = 0;
    if (!get(in, n_rows) || n_rows > kMaxMetricSamples) return false;
    ring.rows.resize(static_cast<std::size_t>(n_rows));
    for (core::metrics::RingSnapshot::Row& row : ring.rows) {
        row.values.resize(static_cast<std::size_t>(n_series));
        if (!get(in, row.t_us) ||
            !in.read_exact(row.values.data(), sizeof(double) * row.values.size()))
            return false;
    }
    return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Batch frames
// ---------------------------------------------------------------------------

bool write_batch_request(int fd, const std::vector<Vector>& points,
                         const std::vector<std::size_t>& indices,
                         std::vector<unsigned char>& scratch) {
    const std::size_t dim = indices.empty() ? 0 : points[indices.front()].size();
    scratch.clear();
    scratch.reserve(2 * sizeof(std::uint64_t) + indices.size() * dim * sizeof(double));
    put(scratch, static_cast<std::uint64_t>(indices.size()));
    put(scratch, static_cast<std::uint64_t>(dim));
    for (const std::size_t idx : indices) {
        put_bytes(scratch, points[idx].data(), dim * sizeof(double));
    }
    return write_all(fd, scratch.data(), scratch.size());
}

bool read_batch_request(Reader& in, std::vector<Vector>& points) {
    std::uint64_t count = 0;
    std::uint64_t dim = 0;
    if (!get(in, count) || count == 0 || count > kSaneLimit) return false;
    if (!get(in, dim) || dim > kSaneLimit || count * dim > kSaneLimit) return false;
    points.assign(static_cast<std::size_t>(count), Vector(static_cast<std::size_t>(dim)));
    for (Vector& p : points) {
        if (!in.read_exact(p.data(), sizeof(double) * p.size())) return false;
    }
    return true;
}

bool write_batch_result(int fd, const std::vector<EvalResult>& results,
                        std::vector<unsigned char>& scratch) {
    scratch.clear();
    put(scratch, static_cast<std::uint64_t>(results.size()));
    for (const EvalResult& r : results) {
        put_status(scratch, r.ok ? kStatusOk : kStatusError, r.error);
        if (r.ok) put_responses(scratch, r.responses);
    }
    return write_all(fd, scratch.data(), scratch.size());
}

bool read_batch_result(Reader& in, std::size_t expected, std::vector<EvalResult>& results) {
    results.clear();
    std::uint64_t count = 0;
    if (!get(in, count) || count != expected) return false;
    results.resize(static_cast<std::size_t>(count));
    for (EvalResult& r : results) {
        // Each response has its own budget: the frame holds as many as the
        // request had points.
        FrameBudget budget;
        std::uint64_t status = kStatusError;
        if (!get_status(in, status, r.error)) return false;
        if (status != kStatusOk && status != kStatusError) return false;  // broken frame
        r.ok = status == kStatusOk;
        if (r.ok && !get_responses(in, r.responses, budget)) return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Handshake frames
// ---------------------------------------------------------------------------

bool write_hello(int fd, const Hello& hello) {
    Bytes out = opener(kHandshakeMagic, hello.version);
    put_string(out, hello.fingerprint);
    return write_all(fd, out.data(), out.size());
}

bool read_hello_body(Reader& in, Hello& hello) {
    FrameBudget budget;
    return read_version(in, hello.version) && get_string(in, hello.fingerprint, budget);
}

bool write_welcome(int fd, std::uint64_t status, const std::string& message,
                   std::uint64_t server_now_us) {
    Bytes out;
    put_status(out, status, message);
    if (status == kStatusOk) put(out, server_now_us);
    return write_all(fd, out.data(), out.size());
}

bool read_welcome(Reader& in, std::uint64_t& status, std::string& message,
                  std::uint64_t* server_now_us) {
    if (!get_status(in, status, message)) return false;
    if (status != kStatusOk) return true;
    std::uint64_t ts = 0;
    if (!get(in, ts)) return false;
    if (server_now_us) *server_now_us = ts;
    return true;
}

// ---------------------------------------------------------------------------
// Connection-kind dispatch and the stats frame
// ---------------------------------------------------------------------------

bool read_connection_magic(Reader& in, ConnectionKind& kind) {
    char magic[sizeof kHandshakeMagic];
    if (!in.read_exact(magic, sizeof magic)) return false;
    const auto matches = [&](const char (&expected)[6]) {
        return std::equal(magic, magic + sizeof magic, expected);
    };
    if (matches(kHandshakeMagic)) {
        kind = ConnectionKind::Eval;
    } else if (matches(kStatsMagic)) {
        kind = ConnectionKind::Stats;
    } else if (matches(kStoreMagic)) {
        kind = ConnectionKind::Store;
    } else {
        kind = ConnectionKind::Unknown;
    }
    return true;
}

bool read_version(Reader& in, std::uint32_t& version) { return get(in, version); }

bool write_stats_request(int fd, std::uint32_t version) {
    const Bytes out = opener(kStatsMagic, version);
    return write_all(fd, out.data(), out.size());
}

bool write_stats_reply(int fd, std::uint64_t status, const ShardStats& stats,
                       const std::string& message) {
    Bytes out;
    put_status(out, status, message);
    if (status == kStatusOk) {
        put(out, stats.version);
        put(out, stats.points_served);
        put(out, stats.points_failed);
        put(out, stats.handshakes_rejected);
        put(out, stats.worker_respawns);
        put(out, stats.points_timed_out);
        put(out, stats.in_flight);
        put(out, stats.connections_accepted);
        put(out, stats.uptime_seconds);
        put(out, static_cast<std::uint64_t>(stats.latency_buckets.size()));
        for (const auto& [index, count] : stats.latency_buckets) {
            put(out, index);
            put(out, count);
        }
        put(out, stats.latency_p50_us);
        put(out, stats.latency_p95_us);
        put(out, stats.latency_p99_us);
        put_ring(out, stats.metrics);
    }
    return write_all(fd, out.data(), out.size());
}

bool read_stats_reply(Reader& in, std::uint64_t& status, ShardStats& stats,
                      std::string& message) {
    stats = ShardStats{};
    if (!get_status(in, status, message)) return false;
    if (status != kStatusOk) return true;
    if (!(get(in, stats.version) && get(in, stats.points_served) &&
          get(in, stats.points_failed) && get(in, stats.handshakes_rejected) &&
          get(in, stats.worker_respawns) && get(in, stats.points_timed_out) &&
          get(in, stats.in_flight) && get(in, stats.connections_accepted) &&
          get(in, stats.uptime_seconds)))
        return false;
    // Latency histogram: the bucket count and every index are validated
    // before any allocation — a frame claiming more buckets than the
    // telemetry histogram owns is corrupt, not large.
    std::uint64_t n = 0;
    if (!get(in, n) || n > kMaxHistogramBuckets) return false;
    stats.latency_buckets.resize(static_cast<std::size_t>(n));
    for (auto& [index, count] : stats.latency_buckets) {
        if (!get(in, index) || index >= kMaxHistogramBuckets || !get(in, count)) return false;
    }
    return get(in, stats.latency_p50_us) && get(in, stats.latency_p95_us) &&
           get(in, stats.latency_p99_us) && get_ring(in, stats.metrics);
}

// ---------------------------------------------------------------------------
// Store frames
// ---------------------------------------------------------------------------

bool write_store_hello(int fd, std::uint32_t version) {
    const Bytes out = opener(kStoreMagic, version);
    return write_all(fd, out.data(), out.size());
}

bool write_store_get_request(int fd, const std::vector<std::string>& keys,
                             std::vector<unsigned char>& scratch) {
    scratch.clear();
    put(scratch, kStoreOpGet);
    put(scratch, static_cast<std::uint64_t>(keys.size()));
    for (const std::string& key : keys) put_string(scratch, key);
    return write_all(fd, scratch.data(), scratch.size());
}

bool read_store_get_request_body(Reader& in, std::vector<std::string>& keys) {
    keys.clear();
    FrameBudget budget;
    std::uint64_t count = 0;
    if (!get(in, count) || count == 0 || count > kSaneLimit) return false;
    keys.reserve(static_cast<std::size_t>(count) < 4096 ? static_cast<std::size_t>(count)
                                                        : 4096);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::string key;
        if (!get_string(in, key, budget)) return false;
        keys.push_back(std::move(key));
    }
    return true;
}

bool write_store_get_reply(int fd, const std::vector<StoreLookup>& lookups,
                           std::vector<unsigned char>& scratch) {
    scratch.clear();
    put_status(scratch, kStatusOk, {});
    put(scratch, static_cast<std::uint64_t>(lookups.size()));
    for (const StoreLookup& l : lookups) {
        put(scratch, std::uint64_t{l.found ? 1u : 0u});
        if (l.found) put_responses(scratch, l.responses);
    }
    return write_all(fd, scratch.data(), scratch.size());
}

bool read_store_get_reply(Reader& in, std::size_t expected,
                          std::vector<StoreLookup>& lookups) {
    lookups.clear();
    FrameBudget budget;
    std::uint64_t status = kStatusError;
    std::string message;
    if (!get_status(in, status, message) || status != kStatusOk) return false;
    std::uint64_t count = 0;
    if (!get(in, count) || count != expected) return false;
    lookups.resize(static_cast<std::size_t>(count));
    for (StoreLookup& l : lookups) {
        std::uint64_t found = 0;
        if (!get(in, found) || found > 1) return false;
        l.found = found != 0;
        if (l.found && !get_responses(in, l.responses, budget)) return false;
    }
    return true;
}

bool write_store_put_request(int fd, const std::vector<StoreEntry>& entries,
                             std::vector<unsigned char>& scratch) {
    scratch.clear();
    put(scratch, kStoreOpPut);
    put(scratch, static_cast<std::uint64_t>(entries.size()));
    for (const StoreEntry& e : entries) {
        put_string(scratch, e.key);
        put_responses(scratch, e.responses);
    }
    return write_all(fd, scratch.data(), scratch.size());
}

bool read_store_put_request_body(Reader& in, std::vector<StoreEntry>& entries) {
    entries.clear();
    FrameBudget budget;
    std::uint64_t count = 0;
    if (!get(in, count) || count == 0 || count > kSaneLimit) return false;
    for (std::uint64_t i = 0; i < count; ++i) {
        StoreEntry entry;
        if (!get_string(in, entry.key, budget) || !get_responses(in, entry.responses, budget))
            return false;
        entries.push_back(std::move(entry));
    }
    return true;
}

bool write_store_put_reply(int fd, std::uint64_t status, std::uint64_t appended,
                           const std::string& message) {
    Bytes out;
    put_status(out, status, message);
    if (status == kStatusOk) put(out, appended);
    // The status word goes out on its own, then the rest (see the file
    // comment): the only frame sent in two pieces.
    return write_all(fd, out.data(), sizeof status) &&
           write_all(fd, out.data() + sizeof status, out.size() - sizeof status);
}

bool read_store_put_reply(Reader& in, std::uint64_t& status, std::uint64_t& appended,
                          std::string& message) {
    appended = 0;
    return get_status(in, status, message) && (status != kStatusOk || get(in, appended));
}

bool write_store_stats_request(int fd) { return write_u64(fd, kStoreOpStats); }

bool write_store_stats_reply(int fd, std::uint64_t status, const StoreStats& stats,
                             const std::string& message) {
    Bytes out;
    put_status(out, status, message);
    if (status == kStatusOk) {
        put(out, stats.keys);
        put(out, stats.segments);
        put(out, stats.quarantined_segments);
        put(out, stats.gets_served);
        put(out, stats.get_hits);
        put(out, stats.puts_received);
        put(out, stats.records_appended);
        put(out, stats.connections_accepted);
        put(out, stats.uptime_seconds);
        put_ring(out, stats.metrics);
    }
    return write_all(fd, out.data(), out.size());
}

bool read_store_stats_reply(Reader& in, std::uint64_t& status, StoreStats& stats,
                            std::string& message) {
    stats = StoreStats{};
    if (!get_status(in, status, message)) return false;
    if (status != kStatusOk) return true;
    return get(in, stats.keys) && get(in, stats.segments) &&
           get(in, stats.quarantined_segments) && get(in, stats.gets_served) &&
           get(in, stats.get_hits) && get(in, stats.puts_received) &&
           get(in, stats.records_appended) && get(in, stats.connections_accepted) &&
           get(in, stats.uptime_seconds) && get_ring(in, stats.metrics);
}

}  // namespace ehdoe::net
