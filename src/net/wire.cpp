#include "net/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

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
// Evaluation frames
// ---------------------------------------------------------------------------

namespace {

/// Decode one response body (status + payload); false on EOF and on any
/// broken body.
bool read_result(Reader& in, EvalResult& result) {
    result = EvalResult{};
    std::uint64_t status = kStatusError;
    if (!in.read_u64(status)) return false;
    if (status == kStatusOk) {
        std::uint64_t n = 0;
        if (!in.read_u64(n) || n > kSaneLimit) return false;
        for (std::uint64_t j = 0; j < n; ++j) {
            std::uint64_t len = 0;
            if (!in.read_u64(len) || len > kSaneLimit) return false;
            std::string name(static_cast<std::size_t>(len), '\0');
            double value = 0.0;
            if (!in.read_exact(name.data(), name.size())) return false;
            if (!in.read_exact(&value, sizeof value)) return false;
            result.responses.emplace(std::move(name), value);
        }
        result.ok = true;
        return true;
    }
    if (status != kStatusError) return false;  // unknown status: broken frame
    std::uint64_t len = 0;
    if (!in.read_u64(len) || len > kSaneLimit) return false;
    result.error.assign(static_cast<std::size_t>(len), '\0');
    return in.read_exact(result.error.data(), result.error.size());
}

// ---------------------------------------------------------------------------
// Batch frames
// ---------------------------------------------------------------------------

void append_u64(std::vector<unsigned char>& out, std::uint64_t v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    out.insert(out.end(), p, p + sizeof v);
}

void append_bytes(std::vector<unsigned char>& out, const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    out.insert(out.end(), p, p + len);
}

/// The metrics-ring block shared by the eval and store stats replies.
/// Encoding clamps to the wire caps (a correctly configured server never
/// hits them: the caps exist for the *reader*, which validates every
/// length before allocating).
void append_metrics_ring(std::vector<unsigned char>& out,
                         const core::metrics::RingSnapshot& ring) {
    if (ring.series.size() > kMaxMetricSeries) {
        // Misconfigured registry: send an empty ring rather than a frame
        // every honest reader must reject.
        append_u64(out, ring.interval_us);
        append_u64(out, ring.first_seq);
        append_u64(out, 0);
        append_u64(out, 0);
        return;
    }
    const std::size_t skip =
        ring.rows.size() > kMaxMetricSamples ? ring.rows.size() - kMaxMetricSamples : 0;
    append_u64(out, ring.interval_us);
    append_u64(out, ring.first_seq + skip);
    append_u64(out, ring.series.size());
    for (const std::string& name : ring.series) {
        const std::size_t len =
            name.size() > kMaxMetricNameLen ? kMaxMetricNameLen : name.size();
        append_u64(out, len);
        append_bytes(out, name.data(), len);
    }
    append_u64(out, ring.rows.size() - skip);
    for (std::size_t r = skip; r < ring.rows.size(); ++r) {
        const core::metrics::RingSnapshot::Row& row = ring.rows[r];
        append_u64(out, row.t_us);
        for (std::size_t c = 0; c < ring.series.size(); ++c) {
            const double v = c < row.values.size() ? row.values[c] : 0.0;
            append_bytes(out, &v, sizeof v);
        }
    }
}

/// Decode one metrics-ring block; every length is checked against its cap
/// before any allocation (the histogram discipline).
bool read_metrics_ring(Reader& in, core::metrics::RingSnapshot& ring) {
    ring = core::metrics::RingSnapshot{};
    if (!in.read_u64(ring.interval_us) || !in.read_u64(ring.first_seq)) return false;
    std::uint64_t n_series = 0;
    if (!in.read_u64(n_series) || n_series > kMaxMetricSeries) return false;
    ring.series.reserve(static_cast<std::size_t>(n_series));
    for (std::uint64_t i = 0; i < n_series; ++i) {
        std::uint64_t len = 0;
        if (!in.read_u64(len) || len > kMaxMetricNameLen) return false;
        std::string name(static_cast<std::size_t>(len), '\0');
        if (!in.read_exact(name.data(), name.size())) return false;
        ring.series.push_back(std::move(name));
    }
    std::uint64_t n_rows = 0;
    if (!in.read_u64(n_rows) || n_rows > kMaxMetricSamples) return false;
    ring.rows.reserve(static_cast<std::size_t>(n_rows));
    for (std::uint64_t r = 0; r < n_rows; ++r) {
        core::metrics::RingSnapshot::Row row;
        if (!in.read_u64(row.t_us)) return false;
        row.values.resize(static_cast<std::size_t>(n_series));
        if (!in.read_exact(row.values.data(), sizeof(double) * row.values.size()))
            return false;
        ring.rows.push_back(std::move(row));
    }
    return true;
}

/// Append one batch request frame carrying points[indices[0..k)] (all of
/// one dimension) to `out`.
void encode_batch_request(std::vector<unsigned char>& out, const std::vector<Vector>& points,
                          const std::vector<std::size_t>& indices) {
    const std::size_t dim = indices.empty() ? 0 : points[indices.front()].size();
    out.reserve(out.size() + 2 * sizeof(std::uint64_t) +
                indices.size() * dim * sizeof(double));
    append_u64(out, indices.size());
    append_u64(out, dim);
    for (const std::size_t idx : indices) {
        append_bytes(out, points[idx].data(), dim * sizeof(double));
    }
}

}  // namespace

bool write_batch_request(int fd, const std::vector<Vector>& points,
                         const std::vector<std::size_t>& indices,
                         std::vector<unsigned char>& scratch) {
    scratch.clear();
    encode_batch_request(scratch, points, indices);
    return write_all(fd, scratch.data(), scratch.size());
}

bool read_batch_request(Reader& in, std::vector<Vector>& points) {
    std::uint64_t count = 0;
    std::uint64_t dim = 0;
    if (!in.read_u64(count) || count == 0 || count > kSaneLimit) return false;
    if (!in.read_u64(dim) || dim > kSaneLimit || count * dim > kSaneLimit) return false;
    points.assign(static_cast<std::size_t>(count), Vector(static_cast<std::size_t>(dim)));
    for (Vector& p : points) {
        if (!in.read_exact(p.data(), sizeof(double) * p.size())) return false;
    }
    return true;
}

namespace {

/// Append one response body to `out`.
void encode_result(std::vector<unsigned char>& out, const EvalResult& result) {
    if (result.ok) {
        append_u64(out, kStatusOk);
        append_u64(out, result.responses.size());
        for (const auto& [name, value] : result.responses) {
            append_u64(out, name.size());
            append_bytes(out, name.data(), name.size());
            append_bytes(out, &value, sizeof value);
        }
        return;
    }
    append_u64(out, kStatusError);
    append_u64(out, result.error.size());
    append_bytes(out, result.error.data(), result.error.size());
}

}  // namespace

bool write_batch_result(int fd, const std::vector<EvalResult>& results,
                        std::vector<unsigned char>& scratch) {
    scratch.clear();
    append_u64(scratch, results.size());
    for (const EvalResult& r : results) encode_result(scratch, r);
    return write_all(fd, scratch.data(), scratch.size());
}

bool read_batch_result(Reader& in, std::size_t expected, std::vector<EvalResult>& results) {
    results.clear();
    std::uint64_t count = 0;
    if (!in.read_u64(count) || count != expected) return false;
    results.resize(static_cast<std::size_t>(count));
    for (EvalResult& r : results) {
        if (!read_result(in, r)) return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Handshake frames
// ---------------------------------------------------------------------------

bool write_hello(int fd, const Hello& hello) {
    return write_all(fd, kHandshakeMagic, sizeof kHandshakeMagic) &&
           write_all(fd, &hello.version, sizeof hello.version) &&
           write_u64(fd, hello.fingerprint.size()) &&
           write_all(fd, hello.fingerprint.data(), hello.fingerprint.size());
}

bool read_hello_body(Reader& in, Hello& hello) {
    if (!in.read_exact(&hello.version, sizeof hello.version)) return false;
    std::uint64_t fp_len = 0;
    if (!in.read_u64(fp_len) || fp_len > kSaneLimit) return false;
    hello.fingerprint.assign(static_cast<std::size_t>(fp_len), '\0');
    return in.read_exact(hello.fingerprint.data(), hello.fingerprint.size());
}

bool write_welcome(int fd, std::uint64_t status, const std::string& message,
                   std::uint64_t server_now_us) {
    std::vector<unsigned char> out;
    append_u64(out, status);
    if (status == kStatusOk) {
        append_u64(out, server_now_us);
    } else {
        append_u64(out, message.size());
        append_bytes(out, message.data(), message.size());
    }
    return write_all(fd, out.data(), out.size());
}

bool read_welcome(Reader& in, std::uint64_t& status, std::string& message,
                  std::uint64_t* server_now_us) {
    message.clear();
    if (!in.read_u64(status)) return false;
    if (status == kStatusOk) {
        std::uint64_t ts = 0;
        if (!in.read_u64(ts)) return false;
        if (server_now_us) *server_now_us = ts;
        return true;
    }
    std::uint64_t len = 0;
    if (!in.read_u64(len) || len > kSaneLimit) return false;
    message.assign(static_cast<std::size_t>(len), '\0');
    return in.read_exact(message.data(), message.size());
}

// ---------------------------------------------------------------------------
// Connection-kind dispatch and the stats frame
// ---------------------------------------------------------------------------

bool read_connection_magic(Reader& in, ConnectionKind& kind) {
    char magic[sizeof kHandshakeMagic];
    if (!in.read_exact(magic, sizeof magic)) return false;
    const auto matches = [&](const char (&expected)[6]) {
        for (std::size_t i = 0; i < sizeof magic; ++i) {
            if (magic[i] != expected[i]) return false;
        }
        return true;
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

bool write_stats_request(int fd, std::uint32_t version) {
    return write_all(fd, kStatsMagic, sizeof kStatsMagic) &&
           write_all(fd, &version, sizeof version);
}

bool read_stats_request_body(Reader& in, std::uint32_t& version) {
    return in.read_exact(&version, sizeof version);
}

bool write_stats_reply(int fd, std::uint64_t status, const ShardStats& stats,
                       const std::string& message) {
    std::vector<unsigned char> out;
    append_u64(out, status);
    if (status != kStatusOk) {
        append_u64(out, message.size());
        append_bytes(out, message.data(), message.size());
        return write_all(fd, out.data(), out.size());
    }
    append_bytes(out, &stats.version, sizeof stats.version);
    append_u64(out, stats.points_served);
    append_u64(out, stats.points_failed);
    append_u64(out, stats.handshakes_rejected);
    append_u64(out, stats.worker_respawns);
    append_u64(out, stats.points_timed_out);
    append_u64(out, stats.in_flight);
    append_u64(out, stats.connections_accepted);
    append_bytes(out, &stats.uptime_seconds, sizeof stats.uptime_seconds);
    append_u64(out, stats.latency_buckets.size());
    for (const auto& [index, count] : stats.latency_buckets) {
        append_u64(out, index);
        append_u64(out, count);
    }
    append_bytes(out, &stats.latency_p50_us, sizeof stats.latency_p50_us);
    append_bytes(out, &stats.latency_p95_us, sizeof stats.latency_p95_us);
    append_bytes(out, &stats.latency_p99_us, sizeof stats.latency_p99_us);
    append_metrics_ring(out, stats.metrics);
    return write_all(fd, out.data(), out.size());
}

bool read_stats_reply(Reader& in, std::uint64_t& status, ShardStats& stats,
                      std::string& message) {
    message.clear();
    stats = ShardStats{};
    if (!in.read_u64(status)) return false;
    if (status != kStatusOk) {
        std::uint64_t len = 0;
        if (!in.read_u64(len) || len > kSaneLimit) return false;
        message.assign(static_cast<std::size_t>(len), '\0');
        return in.read_exact(message.data(), message.size());
    }
    if (!(in.read_exact(&stats.version, sizeof stats.version) &&
          in.read_u64(stats.points_served) && in.read_u64(stats.points_failed) &&
          in.read_u64(stats.handshakes_rejected) && in.read_u64(stats.worker_respawns) &&
          in.read_u64(stats.points_timed_out) && in.read_u64(stats.in_flight) &&
          in.read_u64(stats.connections_accepted) &&
          in.read_exact(&stats.uptime_seconds, sizeof stats.uptime_seconds)))
        return false;
    // Latency histogram: the bucket count and every index are validated
    // before any allocation — a frame claiming more buckets than the
    // telemetry histogram owns is corrupt, not large.
    std::uint64_t n = 0;
    if (!in.read_u64(n) || n > kMaxHistogramBuckets) return false;
    stats.latency_buckets.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t index = 0;
        std::uint64_t count = 0;
        if (!in.read_u64(index) || index >= kMaxHistogramBuckets) return false;
        if (!in.read_u64(count)) return false;
        stats.latency_buckets.emplace_back(index, count);
    }
    if (!(in.read_exact(&stats.latency_p50_us, sizeof stats.latency_p50_us) &&
          in.read_exact(&stats.latency_p95_us, sizeof stats.latency_p95_us) &&
          in.read_exact(&stats.latency_p99_us, sizeof stats.latency_p99_us)))
        return false;
    // Metrics ring, validated before allocation like the histogram.
    return read_metrics_ring(in, stats.metrics);
}

// ---------------------------------------------------------------------------
// Store frames
// ---------------------------------------------------------------------------

namespace {

/// Cumulative pre-allocation budget for one store frame: every length a
/// decoder is about to allocate is charged against the remaining budget, so
/// a frame's *total* claimed size is bounded by kSaneLimit even when each
/// individual field passes its own check.
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

bool read_string_budgeted(Reader& in, std::string& out, FrameBudget& budget) {
    std::uint64_t len = 0;
    if (!in.read_u64(len) || len > kSaneLimit || !budget.charge(len)) return false;
    out.assign(static_cast<std::size_t>(len), '\0');
    return in.read_exact(out.data(), out.size());
}

bool read_responses_budgeted(Reader& in, ResponseMap& out, FrameBudget& budget) {
    std::uint64_t n = 0;
    if (!in.read_u64(n) || n > kSaneLimit || !budget.charge(n * sizeof(double))) return false;
    for (std::uint64_t j = 0; j < n; ++j) {
        std::string name;
        double value = 0.0;
        if (!read_string_budgeted(in, name, budget)) return false;
        if (!in.read_exact(&value, sizeof value)) return false;
        out.emplace(std::move(name), value);
    }
    return true;
}

void append_responses(std::vector<unsigned char>& out, const ResponseMap& responses) {
    append_u64(out, responses.size());
    for (const auto& [name, value] : responses) {
        append_u64(out, name.size());
        append_bytes(out, name.data(), name.size());
        append_bytes(out, &value, sizeof value);
    }
}

bool read_error_message(Reader& in, std::string& message) {
    std::uint64_t len = 0;
    if (!in.read_u64(len) || len > kSaneLimit) return false;
    message.assign(static_cast<std::size_t>(len), '\0');
    return in.read_exact(message.data(), message.size());
}

}  // namespace

bool write_store_hello(int fd, std::uint32_t version) {
    return write_all(fd, kStoreMagic, sizeof kStoreMagic) &&
           write_all(fd, &version, sizeof version);
}

bool read_store_hello_body(Reader& in, std::uint32_t& version) {
    return in.read_exact(&version, sizeof version);
}

bool read_store_opcode(Reader& in, std::uint64_t& opcode) { return in.read_u64(opcode); }

bool write_store_get_request(int fd, const std::vector<std::string>& keys,
                             std::vector<unsigned char>& scratch) {
    scratch.clear();
    append_u64(scratch, kStoreOpGet);
    append_u64(scratch, keys.size());
    for (const std::string& key : keys) {
        append_u64(scratch, key.size());
        append_bytes(scratch, key.data(), key.size());
    }
    return write_all(fd, scratch.data(), scratch.size());
}

bool read_store_get_request_body(Reader& in, std::vector<std::string>& keys) {
    keys.clear();
    FrameBudget budget;
    std::uint64_t count = 0;
    if (!in.read_u64(count) || count == 0 || count > kSaneLimit) return false;
    keys.reserve(static_cast<std::size_t>(count) < 4096 ? static_cast<std::size_t>(count)
                                                        : 4096);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::string key;
        if (!read_string_budgeted(in, key, budget)) return false;
        keys.push_back(std::move(key));
    }
    return true;
}

bool write_store_get_reply(int fd, const std::vector<StoreLookup>& lookups,
                           std::vector<unsigned char>& scratch) {
    scratch.clear();
    append_u64(scratch, kStatusOk);
    append_u64(scratch, lookups.size());
    for (const StoreLookup& l : lookups) {
        append_u64(scratch, l.found ? 1 : 0);
        if (l.found) append_responses(scratch, l.responses);
    }
    return write_all(fd, scratch.data(), scratch.size());
}

bool read_store_get_reply(Reader& in, std::size_t expected,
                          std::vector<StoreLookup>& lookups) {
    lookups.clear();
    FrameBudget budget;
    std::uint64_t status = kStatusError;
    if (!in.read_u64(status) || status != kStatusOk) return false;
    std::uint64_t count = 0;
    if (!in.read_u64(count) || count != expected) return false;
    lookups.resize(static_cast<std::size_t>(count));
    for (StoreLookup& l : lookups) {
        std::uint64_t found = 0;
        if (!in.read_u64(found) || found > 1) return false;
        l.found = found != 0;
        if (l.found && !read_responses_budgeted(in, l.responses, budget)) return false;
    }
    return true;
}

bool write_store_put_request(int fd, const std::vector<StoreEntry>& entries,
                             std::vector<unsigned char>& scratch) {
    scratch.clear();
    append_u64(scratch, kStoreOpPut);
    append_u64(scratch, entries.size());
    for (const StoreEntry& e : entries) {
        append_u64(scratch, e.key.size());
        append_bytes(scratch, e.key.data(), e.key.size());
        append_responses(scratch, e.responses);
    }
    return write_all(fd, scratch.data(), scratch.size());
}

bool read_store_put_request_body(Reader& in, std::vector<StoreEntry>& entries) {
    entries.clear();
    FrameBudget budget;
    std::uint64_t count = 0;
    if (!in.read_u64(count) || count == 0 || count > kSaneLimit) return false;
    for (std::uint64_t i = 0; i < count; ++i) {
        StoreEntry entry;
        if (!read_string_budgeted(in, entry.key, budget)) return false;
        if (!read_responses_budgeted(in, entry.responses, budget)) return false;
        entries.push_back(std::move(entry));
    }
    return true;
}

bool write_store_put_reply(int fd, std::uint64_t status, std::uint64_t appended,
                           const std::string& message) {
    if (!write_u64(fd, status)) return false;
    if (status == kStatusOk) return write_u64(fd, appended);
    return write_u64(fd, message.size()) && write_all(fd, message.data(), message.size());
}

bool read_store_put_reply(Reader& in, std::uint64_t& status, std::uint64_t& appended,
                          std::string& message) {
    message.clear();
    appended = 0;
    if (!in.read_u64(status)) return false;
    if (status == kStatusOk) return in.read_u64(appended);
    return read_error_message(in, message);
}

bool write_store_stats_request(int fd) { return write_u64(fd, kStoreOpStats); }

bool write_store_stats_reply(int fd, std::uint64_t status, const StoreStats& stats,
                             const std::string& message) {
    std::vector<unsigned char> scratch;
    append_u64(scratch, status);
    if (status == kStatusOk) {
        append_u64(scratch, stats.keys);
        append_u64(scratch, stats.segments);
        append_u64(scratch, stats.quarantined_segments);
        append_u64(scratch, stats.gets_served);
        append_u64(scratch, stats.get_hits);
        append_u64(scratch, stats.puts_received);
        append_u64(scratch, stats.records_appended);
        append_u64(scratch, stats.connections_accepted);
        append_bytes(scratch, &stats.uptime_seconds, sizeof stats.uptime_seconds);
        append_metrics_ring(scratch, stats.metrics);
    } else {
        append_u64(scratch, message.size());
        append_bytes(scratch, message.data(), message.size());
    }
    return write_all(fd, scratch.data(), scratch.size());
}

bool read_store_stats_reply(Reader& in, std::uint64_t& status, StoreStats& stats,
                            std::string& message) {
    message.clear();
    stats = StoreStats{};
    if (!in.read_u64(status)) return false;
    if (status != kStatusOk) return read_error_message(in, message);
    if (!(in.read_u64(stats.keys) && in.read_u64(stats.segments) &&
          in.read_u64(stats.quarantined_segments) && in.read_u64(stats.gets_served) &&
          in.read_u64(stats.get_hits) && in.read_u64(stats.puts_received) &&
          in.read_u64(stats.records_appended) &&
          in.read_u64(stats.connections_accepted) &&
          in.read_exact(&stats.uptime_seconds, sizeof stats.uptime_seconds)))
        return false;
    return read_metrics_ring(in, stats.metrics);
}

}  // namespace ehdoe::net
