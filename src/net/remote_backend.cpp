#include "net/remote_backend.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
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

/// Max frames in flight per connection (a frame is a whole sub-batch).
constexpr std::size_t kPipeline = 4;

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
    hello.replicates = options.replicates;
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

/// One persistent shard connection plus its per-batch dispatch state. The
/// dispatch unit is a *frame* — an ordered list of point indices that
/// travels as one wire frame carrying the shard's whole sub-batch.
struct RemoteBackend::Conn {
    Endpoint endpoint;
    std::size_t slot = 0;  ///< index into options().endpoints
    int fd = -1;
    bool alive = false;       ///< liveness as of the last batch/re-dial
    bool dead_batch = false;  ///< died during the batch in flight
    std::deque<std::vector<std::size_t>> to_send;
    std::deque<std::vector<std::size_t>> in_flight;
    /// Reused encode buffer: batch requests gather into it, one send each.
    std::vector<unsigned char> scratch;
    /// Recorded serve ledger: points this shard delivered in *completed*
    /// batches — the only input of the derived assignment weights.
    std::uint64_t completed_points = 0;
    /// Points delivered in the batch in flight (folds into the ledger only
    /// when the batch completes).
    std::size_t batch_completed = 0;
    /// Last re-dial attempt (zero = never tried).
    std::chrono::steady_clock::time_point last_redial{};
};

RemoteBackend::RemoteBackend(RemoteBackendOptions options) : options_(std::move(options)) {
    if (options_.endpoints.empty())
        throw std::invalid_argument("RemoteBackend: at least one endpoint required");
    if (options_.replicates == 0)
        throw std::invalid_argument("RemoteBackend: replicates >= 1");
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
    std::lock_guard<std::mutex> lock(state_mutex_);
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
            // it still speaks the protocol/fingerprint/replicates before it
            // gets work again.
            const int fd = connect_endpoint(c->endpoint, options_);
            if (c->fd >= 0) ::close(c->fd);
            c->fd = fd;
            {
                std::lock_guard<std::mutex> lock(state_mutex_);
                c->alive = true;
            }
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

std::vector<double> RemoteBackend::live_weights(const std::vector<Conn*>& live,
                                                std::size_t batch_points) const {
    std::vector<double> weights;
    weights.reserve(live.size());
    if (!options_.shard_weights.empty()) {
        for (const Conn* c : live) weights.push_back(options_.shard_weights[c->slot]);
        return weights;
    }
    // Catch-up weighting from the recorded serve ledger. Weighting by the
    // counts themselves would freeze the shares (proportional assignment
    // grows every count by the same factor — a rejoined shard would never
    // recover its share); weighting by each shard's *deficit* against the
    // balanced post-batch share instead makes a shard that recorded fewer
    // serves (it was dead, it joined late) take proportionally more of
    // this batch until the ledger levels out. The deficit is scaled by
    // n_live so every weight is an exact small integer in a double:
    // balanced ledgers then give bit-equal weights and the round-robin
    // degenerates to exactly i mod n (a fractional fair share would leak
    // rounding noise into the tie-breaks).
    std::uint64_t total = batch_points;
    for (const Conn* c : live) total += c->completed_points;
    for (const Conn* c : live) {
        const std::uint64_t scaled = c->completed_points * live.size();
        const std::uint64_t deficit = total > scaled ? total - scaled : 0;
        weights.push_back(1.0 + static_cast<double>(deficit));
    }
    return weights;
}

std::vector<ShardReport> RemoteBackend::shard_stats() const {
    std::vector<ShardReport> reports(conns_.size());
    {
        // Snapshot the client-side view under the state lock, so a
        // monitoring thread can poll while a batch is in flight.
        std::lock_guard<std::mutex> lock(state_mutex_);
        std::vector<Conn*> live;
        for (const auto& c : conns_) {
            if (c->alive) live.push_back(c.get());
        }
        const std::vector<double> weights =
            live.empty() ? std::vector<double>{} : live_weights(live, 0);
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            const Conn& c = *conns_[i];
            reports[i].endpoint = c.endpoint;
            reports[i].alive = c.alive;
            reports[i].completed_points = c.completed_points;
            for (std::size_t k = 0; k < live.size(); ++k) {
                if (live[k] == &c) reports[i].weight = weights[k];
            }
        }
    }
    // Poll concurrently: down shards each cost the side-channel timeout,
    // and on a partly-dead farm those bounds must overlap, not stack.
    std::vector<std::thread> pollers;
    pollers.reserve(reports.size());
    for (ShardReport& r : reports) {
        pollers.emplace_back([&r] { r.reachable = query_shard_stats(r.endpoint, r.stats, r.error); });
    }
    for (std::thread& t : pollers) t.join();
    return reports;
}

std::vector<core::ResponseMap> RemoteBackend::evaluate(const std::vector<Vector>& points) {
    const std::size_t n = points.size();
    std::vector<core::ResponseMap> out(n);
    if (n == 0) return out;

    // Liveness only changes here, between batches: dead endpoints get a
    // (throttled) re-dial + re-handshake, and the resulting live set at
    // batch start defines the deterministic assignment.
    maybe_redial();
    std::vector<Conn*> live;
    for (auto& c : conns_) {
        if (c->alive) live.push_back(c.get());
    }
    if (live.empty()) throw std::runtime_error("RemoteBackend: no live endpoints");
    for (Conn* c : live) {
        c->dead_batch = false;
        c->to_send.clear();
        c->in_flight.clear();
        c->batch_completed = 0;
    }

    // Assignment: a pure function of (batch size, recorded serve ledger /
    // explicit weights, live set in configured order) — identical runs
    // shard identically, which is what keeps re-runs reproducible.
    const std::vector<std::size_t> assignment = weighted_assignment(n, live_weights(live, n));
    last_assignment_.assign(n, 0);
    std::vector<std::vector<std::size_t>> sub_batch(live.size());
    for (std::size_t i = 0; i < n; ++i) {
        sub_batch[assignment[i]].push_back(i);
        last_assignment_[i] = live[assignment[i]]->slot;
    }
    // Frame up each shard's sub-batch: one batch frame per shard.
    for (std::size_t k = 0; k < live.size(); ++k) {
        if (sub_batch[k].empty()) continue;
        live[k]->to_send.push_back(std::move(sub_batch[k]));
    }

    // Shared batch state. `unresolved` counts points without a recorded
    // outcome; after an abort (simulation error or total endpoint loss) the
    // batch only drains in-flight work, so the terminal condition is
    // "nothing unresolved, or aborted with nothing in flight".
    std::mutex mu;
    std::condition_variable cv;
    std::size_t unresolved = n;
    std::size_t inflight_total = 0;
    bool abort = false;
    std::size_t completed = 0;
    std::size_t dispatched = 0;
    std::vector<std::string> errors(n);
    std::vector<unsigned char> has_error(n, 0);

    auto finished = [&] { return unresolved == 0 || (abort && inflight_total == 0); };

    // Mark a shard dead and re-dispatch everything it still owed — both
    // unsent and in-flight frames (their responses will never arrive) —
    // round-robin over the surviving shards, one new frame per survivor.
    // Idempotent per batch: the sender and receiver of
    // a dying connection both land here.
    auto on_conn_dead = [&](Conn& c) {
        std::lock_guard<std::mutex> lock(mu);
        if (c.dead_batch) return;
        c.dead_batch = true;
        {
            // state_mutex_ is a leaf lock under `mu` (see header).
            std::lock_guard<std::mutex> state_lock(state_mutex_);
            c.alive = false;
        }
        ::shutdown(c.fd, SHUT_RDWR);  // wake the peer thread blocked on I/O

        std::vector<std::size_t> pending;
        for (const auto& frame : c.in_flight) {
            inflight_total -= frame.size();
            pending.insert(pending.end(), frame.begin(), frame.end());
        }
        c.in_flight.clear();
        for (const auto& frame : c.to_send) {
            pending.insert(pending.end(), frame.begin(), frame.end());
        }
        c.to_send.clear();
        core::telemetry::Event("failover_redispatch")
            .field("endpoint", endpoint_label(c.endpoint))
            .field("pending", static_cast<std::uint64_t>(pending.size()));

        std::vector<Conn*> survivors;
        for (Conn* s : live) {
            if (!s->dead_batch) survivors.push_back(s);
        }
        if (survivors.empty()) {
            for (const std::size_t idx : pending) {
                errors[idx] = "RemoteBackend: endpoint " + endpoint_label(c.endpoint) +
                              " died and no live endpoints remain (point " +
                              std::to_string(idx) + ")";
                has_error[idx] = 1;
                --unresolved;
            }
            abort = true;
        } else {
            std::vector<std::vector<std::size_t>> share(survivors.size());
            std::size_t rr = 0;
            for (const std::size_t idx : pending) {
                share[rr++ % survivors.size()].push_back(idx);
            }
            for (std::size_t k = 0; k < survivors.size(); ++k) {
                if (share[k].empty()) continue;
                survivors[k]->to_send.push_back(std::move(share[k]));
            }
        }
        cv.notify_all();
    };

    auto sender = [&](Conn& c) {
        for (;;) {
            std::vector<std::size_t> frame;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] {
                    return c.dead_batch || abort || finished() ||
                           (!c.to_send.empty() && c.in_flight.size() < kPipeline);
                });
                if (c.dead_batch || abort || finished()) return;
                frame = c.to_send.front();
                c.to_send.pop_front();
                c.in_flight.push_back(frame);
                inflight_total += frame.size();
                ++dispatched;
                cv.notify_all();
            }
            // The write happens on the local `frame` copy: on_conn_dead may
            // clear the in_flight deque concurrently.
            bool write_ok;
            {
                core::telemetry::Span span("dispatch", "net");
                span.arg("endpoint", endpoint_label(c.endpoint));
                span.arg("points", static_cast<std::uint64_t>(frame.size()));
                write_ok = write_batch_request(c.fd, points, frame, c.scratch);
            }
            if (!write_ok) {
                on_conn_dead(c);
                return;
            }
        }
    };

    auto receiver = [&](Conn& c) {
        std::vector<EvalResult> results;
        for (;;) {
            std::size_t expected = 0;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] {
                    return c.dead_batch || !c.in_flight.empty() || finished() ||
                           (abort && c.in_flight.empty());
                });
                if (c.dead_batch) return;
                if (c.in_flight.empty()) return;  // batch done or abort-drained
                expected = c.in_flight.front().size();
            }
            bool io_ok;
            {
                // The receive span covers wait + transfer: most of it is
                // the shard computing, which is exactly what a slow-batch
                // trace needs to show.
                core::telemetry::Span span("receive", "net");
                span.arg("endpoint", endpoint_label(c.endpoint));
                span.arg("points", static_cast<std::uint64_t>(expected));
                // A result frame owes exactly the points its request frame
                // carried; any other count is a broken peer.
                io_ok = read_batch_result(c.fd, expected, results);
            }
            if (!io_ok) {
                on_conn_dead(c);
                return;
            }
            std::lock_guard<std::mutex> lock(mu);
            // The sender may have declared this connection dead between our
            // read and this lock; its in-flight set was re-dispatched, so
            // discard the duplicate (re-execution is bitwise identical).
            if (c.dead_batch) return;
            const std::vector<std::size_t> indices = std::move(c.in_flight.front());
            c.in_flight.pop_front();
            inflight_total -= indices.size();
            for (std::size_t j = 0; j < indices.size(); ++j) {
                const std::size_t idx = indices[j];
                EvalResult& result = results[j];
                if (result.ok) {
                    out[idx] = std::move(result.responses);
                    ++completed;
                    --unresolved;
                    ++c.batch_completed;
                } else {
                    errors[idx] = "RemoteBackend: simulation failed at point " +
                                  std::to_string(idx) + " on " + endpoint_label(c.endpoint) +
                                  ": " + result.error;
                    has_error[idx] = 1;
                    abort = true;
                    --unresolved;
                }
            }
            cv.notify_all();
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(2 * live.size());
    for (Conn* c : live) {
        threads.emplace_back([&sender, c] { sender(*c); });
        threads.emplace_back([&receiver, c] { receiver(*c); });
    }
    for (auto& t : threads) t.join();

    simulations_ += completed * options_.replicates;
    batches_ += dispatched;

    // Fold this batch's serve counts into the weighted-sharding ledger only
    // when every point resolved with a result — the weights must derive
    // from *completed* batches alone. Catch-up weighting then steers later
    // batches toward whoever the ledger says is behind: a shard that was
    // dead (or joined late) ramps back up, a survivor that covered extra
    // points eases off until the ledger levels out.
    bool batch_completed_ok = unresolved == 0;
    for (std::size_t i = 0; batch_completed_ok && i < n; ++i) {
        if (has_error[i]) batch_completed_ok = false;
    }
    if (batch_completed_ok) {
        std::lock_guard<std::mutex> lock(state_mutex_);
        for (Conn* c : live) c->completed_points += c->batch_completed;
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (has_error[i]) throw std::runtime_error(errors[i]);
    }
    return out;
}

}  // namespace ehdoe::net
