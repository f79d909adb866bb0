#include "net/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace ehdoe::net {

namespace {

/// Loop until `len` bytes arrived; false on EOF or a hard error.
bool read_exact(int fd, void* buf, std::size_t len) {
    auto* p = static_cast<unsigned char*>(buf);
    while (len > 0) {
        const ssize_t r = ::recv(fd, p, len, 0);
        if (r > 0) {
            p += r;
            len -= static_cast<std::size_t>(r);
            continue;
        }
        if (r < 0 && errno == EINTR) continue;
        return false;  // EOF or hard error: the peer is gone
    }
    return true;
}

bool read_u64(int fd, std::uint64_t& v) { return read_exact(fd, &v, sizeof v); }

}  // namespace

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
bool read_result(int fd, EvalResult& result) {
    result = EvalResult{};
    std::uint64_t status = kStatusError;
    if (!read_u64(fd, status)) return false;
    if (status == kStatusOk) {
        std::uint64_t n = 0;
        if (!read_u64(fd, n) || n > kSaneLimit) return false;
        for (std::uint64_t j = 0; j < n; ++j) {
            std::uint64_t len = 0;
            if (!read_u64(fd, len) || len > kSaneLimit) return false;
            std::string name(static_cast<std::size_t>(len), '\0');
            double value = 0.0;
            if (!read_exact(fd, name.data(), name.size())) return false;
            if (!read_exact(fd, &value, sizeof value)) return false;
            result.responses.emplace(std::move(name), value);
        }
        result.ok = true;
        return true;
    }
    if (status != kStatusError) return false;  // unknown status: broken frame
    std::uint64_t len = 0;
    if (!read_u64(fd, len) || len > kSaneLimit) return false;
    result.error.assign(static_cast<std::size_t>(len), '\0');
    return read_exact(fd, result.error.data(), result.error.size());
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
bool read_metrics_ring(int fd, core::metrics::RingSnapshot& ring) {
    ring = core::metrics::RingSnapshot{};
    if (!read_u64(fd, ring.interval_us) || !read_u64(fd, ring.first_seq)) return false;
    std::uint64_t n_series = 0;
    if (!read_u64(fd, n_series) || n_series > kMaxMetricSeries) return false;
    ring.series.reserve(static_cast<std::size_t>(n_series));
    for (std::uint64_t i = 0; i < n_series; ++i) {
        std::uint64_t len = 0;
        if (!read_u64(fd, len) || len > kMaxMetricNameLen) return false;
        std::string name(static_cast<std::size_t>(len), '\0');
        if (!read_exact(fd, name.data(), name.size())) return false;
        ring.series.push_back(std::move(name));
    }
    std::uint64_t n_rows = 0;
    if (!read_u64(fd, n_rows) || n_rows > kMaxMetricSamples) return false;
    ring.rows.reserve(static_cast<std::size_t>(n_rows));
    for (std::uint64_t r = 0; r < n_rows; ++r) {
        core::metrics::RingSnapshot::Row row;
        if (!read_u64(fd, row.t_us)) return false;
        row.values.resize(static_cast<std::size_t>(n_series));
        if (!read_exact(fd, row.values.data(), sizeof(double) * row.values.size()))
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

bool read_batch_request(int fd, std::vector<Vector>& points) {
    std::uint64_t count = 0;
    std::uint64_t dim = 0;
    if (!read_u64(fd, count) || count == 0 || count > kSaneLimit) return false;
    if (!read_u64(fd, dim) || dim > kSaneLimit || count * dim > kSaneLimit) return false;
    points.assign(static_cast<std::size_t>(count), Vector(static_cast<std::size_t>(dim)));
    for (Vector& p : points) {
        if (!read_exact(fd, p.data(), sizeof(double) * p.size())) return false;
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

bool read_batch_result(int fd, std::size_t expected, std::vector<EvalResult>& results) {
    results.clear();
    std::uint64_t count = 0;
    if (!read_u64(fd, count) || count != expected) return false;
    results.resize(static_cast<std::size_t>(count));
    for (EvalResult& r : results) {
        if (!read_result(fd, r)) return false;
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

bool read_hello_body(int fd, Hello& hello) {
    if (!read_exact(fd, &hello.version, sizeof hello.version)) return false;
    std::uint64_t fp_len = 0;
    if (!read_u64(fd, fp_len) || fp_len > kSaneLimit) return false;
    hello.fingerprint.assign(static_cast<std::size_t>(fp_len), '\0');
    return read_exact(fd, hello.fingerprint.data(), hello.fingerprint.size());
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

bool read_welcome(int fd, std::uint64_t& status, std::string& message,
                  std::uint64_t* server_now_us) {
    message.clear();
    if (!read_u64(fd, status)) return false;
    if (status == kStatusOk) {
        std::uint64_t ts = 0;
        if (!read_u64(fd, ts)) return false;
        if (server_now_us) *server_now_us = ts;
        return true;
    }
    std::uint64_t len = 0;
    if (!read_u64(fd, len) || len > kSaneLimit) return false;
    message.assign(static_cast<std::size_t>(len), '\0');
    return read_exact(fd, message.data(), message.size());
}

// ---------------------------------------------------------------------------
// Connection-kind dispatch and the stats frame
// ---------------------------------------------------------------------------

bool read_connection_magic(int fd, ConnectionKind& kind) {
    char magic[sizeof kHandshakeMagic];
    if (!read_exact(fd, magic, sizeof magic)) return false;
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

bool read_stats_request_body(int fd, std::uint32_t& version) {
    return read_exact(fd, &version, sizeof version);
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

bool read_stats_reply(int fd, std::uint64_t& status, ShardStats& stats, std::string& message) {
    message.clear();
    stats = ShardStats{};
    if (!read_u64(fd, status)) return false;
    if (status != kStatusOk) {
        std::uint64_t len = 0;
        if (!read_u64(fd, len) || len > kSaneLimit) return false;
        message.assign(static_cast<std::size_t>(len), '\0');
        return read_exact(fd, message.data(), message.size());
    }
    if (!(read_exact(fd, &stats.version, sizeof stats.version) &&
          read_u64(fd, stats.points_served) && read_u64(fd, stats.points_failed) &&
          read_u64(fd, stats.handshakes_rejected) && read_u64(fd, stats.worker_respawns) &&
          read_u64(fd, stats.points_timed_out) && read_u64(fd, stats.in_flight) &&
          read_u64(fd, stats.connections_accepted) &&
          read_exact(fd, &stats.uptime_seconds, sizeof stats.uptime_seconds)))
        return false;
    // Latency histogram: the bucket count and every index are validated
    // before any allocation — a frame claiming more buckets than the
    // telemetry histogram owns is corrupt, not large.
    std::uint64_t n = 0;
    if (!read_u64(fd, n) || n > kMaxHistogramBuckets) return false;
    stats.latency_buckets.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t index = 0;
        std::uint64_t count = 0;
        if (!read_u64(fd, index) || index >= kMaxHistogramBuckets) return false;
        if (!read_u64(fd, count)) return false;
        stats.latency_buckets.emplace_back(index, count);
    }
    if (!(read_exact(fd, &stats.latency_p50_us, sizeof stats.latency_p50_us) &&
          read_exact(fd, &stats.latency_p95_us, sizeof stats.latency_p95_us) &&
          read_exact(fd, &stats.latency_p99_us, sizeof stats.latency_p99_us)))
        return false;
    // Metrics ring, validated before allocation like the histogram.
    return read_metrics_ring(fd, stats.metrics);
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

bool read_string_budgeted(int fd, std::string& out, FrameBudget& budget) {
    std::uint64_t len = 0;
    if (!read_u64(fd, len) || len > kSaneLimit || !budget.charge(len)) return false;
    out.assign(static_cast<std::size_t>(len), '\0');
    return read_exact(fd, out.data(), out.size());
}

bool read_responses_budgeted(int fd, ResponseMap& out, FrameBudget& budget) {
    std::uint64_t n = 0;
    if (!read_u64(fd, n) || n > kSaneLimit || !budget.charge(n * sizeof(double))) return false;
    for (std::uint64_t j = 0; j < n; ++j) {
        std::string name;
        double value = 0.0;
        if (!read_string_budgeted(fd, name, budget)) return false;
        if (!read_exact(fd, &value, sizeof value)) return false;
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

bool read_error_message(int fd, std::string& message) {
    std::uint64_t len = 0;
    if (!read_u64(fd, len) || len > kSaneLimit) return false;
    message.assign(static_cast<std::size_t>(len), '\0');
    return read_exact(fd, message.data(), message.size());
}

}  // namespace

bool write_store_hello(int fd, std::uint32_t version) {
    return write_all(fd, kStoreMagic, sizeof kStoreMagic) &&
           write_all(fd, &version, sizeof version);
}

bool read_store_hello_body(int fd, std::uint32_t& version) {
    return read_exact(fd, &version, sizeof version);
}

bool read_store_opcode(int fd, std::uint64_t& opcode) { return read_u64(fd, opcode); }

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

bool read_store_get_request_body(int fd, std::vector<std::string>& keys) {
    keys.clear();
    FrameBudget budget;
    std::uint64_t count = 0;
    if (!read_u64(fd, count) || count == 0 || count > kSaneLimit) return false;
    keys.reserve(static_cast<std::size_t>(count) < 4096 ? static_cast<std::size_t>(count)
                                                        : 4096);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::string key;
        if (!read_string_budgeted(fd, key, budget)) return false;
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

bool read_store_get_reply(int fd, std::size_t expected, std::vector<StoreLookup>& lookups) {
    lookups.clear();
    FrameBudget budget;
    std::uint64_t status = kStatusError;
    if (!read_u64(fd, status) || status != kStatusOk) return false;
    std::uint64_t count = 0;
    if (!read_u64(fd, count) || count != expected) return false;
    lookups.resize(static_cast<std::size_t>(count));
    for (StoreLookup& l : lookups) {
        std::uint64_t found = 0;
        if (!read_u64(fd, found) || found > 1) return false;
        l.found = found != 0;
        if (l.found && !read_responses_budgeted(fd, l.responses, budget)) return false;
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

bool read_store_put_request_body(int fd, std::vector<StoreEntry>& entries) {
    entries.clear();
    FrameBudget budget;
    std::uint64_t count = 0;
    if (!read_u64(fd, count) || count == 0 || count > kSaneLimit) return false;
    for (std::uint64_t i = 0; i < count; ++i) {
        StoreEntry entry;
        if (!read_string_budgeted(fd, entry.key, budget)) return false;
        if (!read_responses_budgeted(fd, entry.responses, budget)) return false;
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

bool read_store_put_reply(int fd, std::uint64_t& status, std::uint64_t& appended,
                          std::string& message) {
    message.clear();
    appended = 0;
    if (!read_u64(fd, status)) return false;
    if (status == kStatusOk) return read_u64(fd, appended);
    return read_error_message(fd, message);
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

bool read_store_stats_reply(int fd, std::uint64_t& status, StoreStats& stats,
                            std::string& message) {
    message.clear();
    stats = StoreStats{};
    if (!read_u64(fd, status)) return false;
    if (status != kStatusOk) return read_error_message(fd, message);
    if (!(read_u64(fd, stats.keys) && read_u64(fd, stats.segments) &&
          read_u64(fd, stats.quarantined_segments) && read_u64(fd, stats.gets_served) &&
          read_u64(fd, stats.get_hits) && read_u64(fd, stats.puts_received) &&
          read_u64(fd, stats.records_appended) &&
          read_u64(fd, stats.connections_accepted) &&
          read_exact(fd, &stats.uptime_seconds, sizeof stats.uptime_seconds)))
        return false;
    return read_metrics_ring(fd, stats.metrics);
}

}  // namespace ehdoe::net
