#include "net/remote_backend.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "core/telemetry.hpp"

namespace ehdoe::net {

Endpoint parse_endpoint(const std::string& spec) {
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos)
        throw std::invalid_argument("parse_endpoint: expected host:port, got '" + spec + "'");
    Endpoint e;
    e.host = spec.substr(0, colon);
    if (e.host.empty()) e.host = "127.0.0.1";
    const std::string port = spec.substr(colon + 1);
    char* end = nullptr;
    const long value = std::strtol(port.c_str(), &end, 10);
    if (port.empty() || *end != '\0' || value <= 0 || value > 65535)
        throw std::invalid_argument("parse_endpoint: bad port in '" + spec + "'");
    e.port = static_cast<std::uint16_t>(value);
    return e;
}

namespace {

std::string endpoint_label(const Endpoint& e) {
    return e.host + ":" + std::to_string(e.port);
}

}  // namespace

int connect_tcp(const Endpoint& endpoint, int timeout_seconds) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    const std::string port = std::to_string(endpoint.port);
    if (::getaddrinfo(endpoint.host.c_str(), port.c_str(), &hints, &found) != 0 || !found)
        throw std::runtime_error("cannot resolve endpoint " + endpoint_label(endpoint));

    int fd = -1;
    for (addrinfo* ai = found; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
        if (fd < 0) continue;
        if (timeout_seconds > 0) {
            timeval timeout{};
            timeout.tv_sec = timeout_seconds;
            ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
            ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(found);
    if (fd < 0)
        throw std::runtime_error("endpoint " + endpoint_label(endpoint) + " is unreachable");

    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

namespace {

/// Bound applied to monitoring polls and between-batch re-dials: paths that
/// must degrade in seconds, never hang a run or a dashboard for the
/// kernel's TCP patience.
constexpr int kSideChannelTimeoutSeconds = 5;

/// The sum of `weights`; throws unless every weight is finite and positive
/// and the sum is finite too (an infinite or overflowing weight would turn
/// the round-robin's accumulators into inf or NaN).
double checked_weight_sum(const std::vector<double>& weights, const std::string& what) {
    double total = 0.0;
    for (const double w : weights) {
        if (!(w > 0.0) || !std::isfinite(w))
            throw std::invalid_argument(what + " must be finite and positive");
        total += w;
    }
    if (!std::isfinite(total)) throw std::invalid_argument(what + " must have a finite sum");
    return total;
}

/// Connect + handshake one endpoint; throws with the server's message on
/// refusal, a transport diagnosis otherwise. The connect and handshake
/// round-trips are time-bounded (a wedged server cannot stall construction
/// or a re-dial); the bound is lifted before the fd is returned, because
/// eval reads legitimately wait as long as a slow simulation takes.
int connect_endpoint(const Endpoint& endpoint, const RemoteBackendOptions& options) {
    core::telemetry::Span span("handshake", "net");
    const int fd = connect_tcp(endpoint, kSideChannelTimeoutSeconds);

    Hello hello;
    hello.fingerprint = options.fingerprint;
    std::uint64_t status = kStatusError;
    std::string message;
    std::uint64_t server_now_us = 0;
    if (!write_hello(fd, hello) || !read_welcome(fd, status, message, &server_now_us)) {
        ::close(fd);
        throw std::runtime_error("RemoteBackend: handshake with " + endpoint_label(endpoint) +
                                 " failed (connection dropped)");
    }
    if (status != kStatusOk) {
        ::close(fd);
        throw std::runtime_error("RemoteBackend: endpoint " + endpoint_label(endpoint) +
                                 " rejected the handshake: " + message);
    }
    // Handshake done: lift the side-channel bound for the eval lifetime.
    timeval unbounded{};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &unbounded, sizeof unbounded);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &unbounded, sizeof unbounded);
    // The welcome carried the server's clock: the offset between the two
    // monotonic clocks, sampled one loopback/network hop apart, is what
    // ehdoe-trace uses to merge this server's trace onto the client
    // timeline.
    span.arg("endpoint", endpoint_label(endpoint));
    span.arg("version", static_cast<std::uint64_t>(kProtocolVersion));
    span.arg("offset_us", static_cast<std::int64_t>(core::telemetry::now_us()) -
                              static_cast<std::int64_t>(server_now_us));
    return fd;
}

}  // namespace

std::vector<std::size_t> weighted_assignment(std::size_t n, const std::vector<double>& weights) {
    if (weights.empty())
        throw std::invalid_argument("weighted_assignment: at least one shard required");
    const double total = checked_weight_sum(weights, "weighted_assignment: weights");
    // Smooth weighted round-robin: every step each slot gains its weight,
    // the largest accumulator wins the point and pays the total back. With
    // uniform weights the winners cycle in slot order — exactly i mod n.
    std::vector<std::size_t> out(n);
    std::vector<double> current(weights.size(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t best = 0;
        for (std::size_t k = 0; k < weights.size(); ++k) {
            current[k] += weights[k];
            if (current[k] > current[best]) best = k;
        }
        current[best] -= total;
        out[i] = best;
    }
    return out;
}

bool query_shard_stats(const Endpoint& endpoint, ShardStats& stats, std::string& error) {
    stats = ShardStats{};
    error.clear();
    int fd = -1;
    try {
        // A monitoring poll must never hang on a wedged or SYN-dropping
        // server: connect and both I/O directions are time-bounded.
        fd = connect_tcp(endpoint, kSideChannelTimeoutSeconds);
    } catch (const std::exception& e) {
        error = e.what();
        return false;
    }
    std::uint64_t status = kStatusError;
    std::string message;
    const bool io_ok = write_stats_request(fd) && read_stats_reply(fd, status, stats, message);
    ::close(fd);
    if (!io_ok) {
        error = "stats query to " + endpoint_label(endpoint) +
                " failed (connection dropped mid-frame)";
        return false;
    }
    if (status == kStatusOk) return true;
    error = "endpoint " + endpoint_label(endpoint) + " rejected the stats request: " + message;
    return false;
}

/// One persistent shard connection.
struct RemoteBackend::Conn {
    Endpoint endpoint;
    std::size_t slot = 0;  ///< index into options().endpoints
    int fd = -1;
    bool alive = false;  ///< false from a failed read or write until a re-dial succeeds
    /// Reused encode buffer: batch requests gather into it, one send each.
    std::vector<unsigned char> scratch;
    /// Last re-dial attempt (zero = never tried).
    std::chrono::steady_clock::time_point last_redial{};
};

RemoteBackend::RemoteBackend(RemoteBackendOptions options) : options_(std::move(options)) {
    if (options_.endpoints.empty())
        throw std::invalid_argument("RemoteBackend: at least one endpoint required");
    if (!options_.shard_weights.empty()) {
        if (options_.shard_weights.size() != options_.endpoints.size())
            throw std::invalid_argument(
                "RemoteBackend: shard_weights must match endpoints (or be empty)");
        checked_weight_sum(options_.shard_weights, "RemoteBackend: shard_weights");
    }

    conns_.reserve(options_.endpoints.size());
    try {
        for (const Endpoint& e : options_.endpoints) {
            auto conn = std::make_unique<Conn>();
            conn->endpoint = e;
            conn->slot = conns_.size();
            conn->fd = connect_endpoint(e, options_);
            conn->alive = true;
            conns_.push_back(std::move(conn));
        }
    } catch (...) {
        for (auto& c : conns_) ::close(c->fd);
        throw;
    }
}

RemoteBackend::~RemoteBackend() {
    for (auto& c : conns_) {
        if (c->fd >= 0) ::close(c->fd);
    }
}

std::size_t RemoteBackend::live_endpoints() const {
    std::size_t n = 0;
    for (const auto& c : conns_) n += c->alive ? 1 : 0;
    return n;
}

std::string RemoteBackend::name() const {
    return "remote(" + std::to_string(conns_.size()) + " shards)";
}

void RemoteBackend::maybe_redial() {
    if (options_.redial_seconds < 0.0) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto& c : conns_) {
        if (c->alive) continue;
        if (c->last_redial.time_since_epoch().count() != 0 &&
            std::chrono::duration<double>(now - c->last_redial).count() <
                options_.redial_seconds)
            continue;
        c->last_redial = now;
        ++redials_;
        core::telemetry::Event("redial").field("endpoint", endpoint_label(c->endpoint));
        try {
            // Full reconnect + re-handshake: a restarted server must prove
            // it still speaks the protocol and fingerprint before it gets
            // work again.
            const int fd = connect_endpoint(c->endpoint, options_);
            if (c->fd >= 0) ::close(c->fd);
            c->fd = fd;
            c->alive = true;
            ++rejoins_;
            core::telemetry::Event("rejoin")
                .field("endpoint", endpoint_label(c->endpoint))
                .field("version", static_cast<std::uint64_t>(kProtocolVersion));
        } catch (const std::exception&) {
            // Still down (or rejecting the handshake): stays dead until the
            // next re-dial window. Construction-time strictness does not
            // apply here — a long run absorbs a flapping shard.
        }
    }
}

std::vector<double> RemoteBackend::live_weights(const std::vector<Conn*>& live) const {
    if (options_.shard_weights.empty()) return std::vector<double>(live.size(), 1.0);
    std::vector<double> weights;
    weights.reserve(live.size());
    for (const Conn* c : live) weights.push_back(options_.shard_weights[c->slot]);
    return weights;
}

std::vector<core::ResponseMap> RemoteBackend::evaluate(const std::vector<Vector>& points) {
    const std::size_t n = points.size();
    std::vector<core::ResponseMap> out(n);
    if (n == 0) return out;

    // Dead endpoints rejoin only here, between batches: they get a
    // (throttled) re-dial + re-handshake, and the resulting live set at
    // batch start defines the deterministic assignment.
    maybe_redial();
    std::vector<Conn*> live;
    for (auto& c : conns_) {
        if (c->alive) live.push_back(c.get());
    }
    if (live.empty()) throw std::runtime_error("RemoteBackend: no live endpoints");

    // Assignment: a pure function of (batch size, explicit weights, live
    // set in configured order) — identical runs shard identically, which
    // is what keeps re-runs reproducible. owed[k] is the frame live[k]
    // owes in the current round.
    const std::vector<std::size_t> assignment = weighted_assignment(n, live_weights(live));
    last_assignment_.assign(n, 0);
    std::vector<std::vector<std::size_t>> owed(live.size());
    for (std::size_t i = 0; i < n; ++i) {
        owed[assignment[i]].push_back(i);
        last_assignment_[i] = live[assignment[i]]->slot;
    }

    // A connection that fails in either direction is dead for the rest of
    // the batch; the shutdown makes its server drop what it was sent.
    auto drop = [](Conn& c) {
        c.alive = false;
        ::shutdown(c.fd, SHUT_RDWR);
    };

    // Points delivered, and each point's error text (empty for none).
    // After a simulation fails, the round finishes and no other starts.
    std::size_t completed = 0;
    std::vector<std::string> errors(n);
    bool failed = false;
    std::vector<EvalResult> results;
    for (bool more = true; more;) {
        // A round: one request frame to every shard that owes points...
        for (std::size_t k = 0; k < live.size(); ++k) {
            if (owed[k].empty()) continue;
            Conn& c = *live[k];
            ++batches_;
            core::telemetry::Span span("dispatch", "net");
            span.arg("endpoint", endpoint_label(c.endpoint));
            span.arg("points", static_cast<std::uint64_t>(owed[k].size()));
            if (!write_batch_request(c.fd, points, owed[k], c.scratch)) drop(c);
        }
        {
            // ...then the result frames in shard order, read while the
            // shards compute. The span covers the wait, which is mostly the
            // shards computing: what a slow-batch trace needs to show.
            core::telemetry::Span span("receive", "net");
            for (std::size_t k = 0; k < live.size(); ++k) {
                Conn& c = *live[k];
                if (owed[k].empty() || !c.alive) continue;
                // A result frame owes exactly the points its request frame
                // carried; any other count is a broken peer.
                if (!read_batch_result(c.fd, owed[k].size(), results)) {
                    drop(c);
                    continue;
                }
                for (std::size_t j = 0; j < owed[k].size(); ++j) {
                    const std::size_t idx = owed[k][j];
                    if (results[j].ok) {
                        out[idx] = std::move(results[j].responses);
                        ++completed;
                    } else {
                        errors[idx] = "RemoteBackend: simulation failed at point " +
                                      std::to_string(idx) + " on " + endpoint_label(c.endpoint) +
                                      ": " + results[j].error;
                        failed = true;
                    }
                }
                owed[k].clear();
            }
        }

        // Failover: a shard that died this round still owes its frame. Its
        // points go round-robin to the survivors for the next round;
        // simulations are pure, so a re-executed point yields the same bits.
        std::vector<std::size_t> survivors;
        for (std::size_t k = 0; k < live.size(); ++k) {
            if (live[k]->alive) survivors.push_back(k);
        }
        more = false;
        std::size_t rr = 0;
        for (std::size_t k = 0; k < live.size(); ++k) {
            if (live[k]->alive || owed[k].empty()) continue;
            const std::string label = endpoint_label(live[k]->endpoint);
            core::telemetry::Event("failover_redispatch")
                .field("endpoint", label)
                .field("pending", static_cast<std::uint64_t>(owed[k].size()));
            for (const std::size_t idx : owed[k]) {
                if (survivors.empty()) {
                    errors[idx] = "RemoteBackend: endpoint " + label +
                                  " died and no live endpoints remain (point " +
                                  std::to_string(idx) + ")";
                } else if (!failed) {
                    owed[survivors[rr++ % survivors.size()]].push_back(idx);
                    more = true;
                }
            }
            owed[k].clear();
        }
    }

    simulations_ += completed;

    for (const std::string& error : errors) {
        if (!error.empty()) throw std::runtime_error(error);
    }
    return out;
}

}  // namespace ehdoe::net
