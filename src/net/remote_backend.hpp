// ehdoe/net/remote_backend.hpp
//
// The client half of the distributed evaluation service: a core::EvalBackend
// that shards every batch across N eval-server endpoints (net/eval_server.hpp)
// over persistent TCP connections speaking the wire protocol (net/wire.hpp).
//
//  * Deterministic sharding — the points of a batch are split evenly over
//    the live endpoints, i mod n_live in configured endpoint order, or by
//    a smooth weighted round-robin over explicit per-endpoint weights
//    (operator-measured throughput of a heterogeneous farm). The
//    assignment is a pure function of the batch size, the weights and the
//    live set at batch start, so repeated runs shard identically; and
//    because every shard runs the same binary arithmetic on the raw f64
//    bits, responses are bitwise identical to InProcessBackend no matter
//    how many shards serve them.
//
//  * Batched frames — every connection ships its whole sub-batch as one
//    request frame and receives one result frame back (scatter/gather
//    through a reused scratch buffer), so the per-point syscall pair and
//    round-trip collapse to one per sub-batch.
//
//  * Rounds on the calling thread — evaluate() starts no thread and takes
//    no lock. A round writes one request frame to every live shard that
//    owes points, then reads the result frames back in shard order while
//    the shards compute; a clean batch is one round.
//
//  * Failover — a shard whose connection fails in either direction is
//    dead for the rest of the batch, and the points of its frame go
//    round-robin to the surviving shards in the next round; simulations
//    are pure functions, so a re-executed point yields the same bits. A
//    survivor takes them over when the round's reads finish, not the
//    moment the death shows. The batch completes with identical results
//    as long as one shard survives; when none do, every stranded point
//    fails with a clear error thrown in input (= design) order.
//
//  * Re-dial — a dead endpoint is re-dialed (and re-handshaked) between
//    batches, throttled by `redial_seconds`, so a restarted eval-server
//    rejoins a long optimization run instead of staying dead for the
//    backend's lifetime. A shard rejoins only between batches, so the
//    assignment stays a pure function of the live set at batch start and
//    rejoin points stay bitwise identical to InProcessBackend.
//
//  * Handshake — construction connects and handshakes every endpoint
//    (protocol version, simulation fingerprint); any mismatch throws with the server's rejection message instead of
//    exchanging garbage frames. The version must equal the server's
//    kProtocolVersion exactly: there is no downgrade.
//
// Failure contract (shared with every backend): a simulation that fails
// remotely surfaces as a std::runtime_error thrown in input order after
// the round's reads drain.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace ehdoe::net {

/// One eval-server address.
struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
};

/// Parse "host:port" (host defaults to 127.0.0.1 for ":port"). Throws
/// std::invalid_argument on a malformed spec.
Endpoint parse_endpoint(const std::string& spec);

/// Resolve + connect one endpoint, with TCP_NODELAY set; no handshake. The
/// one dialer of every client (eval, stats and store connections).
/// `timeout_seconds` > 0 bounds the connect and all later I/O on the fd
/// (SO_SNDTIMEO covers connect() on Linux), so a SYN-dropping host fails in
/// seconds instead of the kernel's minutes. Throws std::runtime_error with
/// a transport diagnosis.
int connect_tcp(const Endpoint& endpoint, int timeout_seconds);

/// The deterministic smooth weighted round-robin: the shard slot (index
/// into `weights`) each of `n` points is assigned to. Pure function — ties
/// break toward the lower slot, uniform weights yield i mod weights.size().
/// Throws std::invalid_argument unless every weight is finite and positive
/// and their sum is finite. Exposed for tests and for reasoning about
/// re-run reproducibility.
std::vector<std::size_t> weighted_assignment(std::size_t n, const std::vector<double>& weights);

/// One stats-frame round-trip against an endpoint (fresh connection,
/// outside any eval path). False with a diagnosis in `error` when the
/// endpoint is unreachable, rejects the request or answers garbage.
bool query_shard_stats(const Endpoint& endpoint, ShardStats& stats, std::string& error);

struct RemoteBackendOptions {
    /// Shards, in the order that defines the deterministic assignment.
    std::vector<Endpoint> endpoints;
    /// Simulation identity sent in the handshake; must equal each server's
    /// configured fingerprint.
    std::string fingerprint;
    /// Explicit per-endpoint weights (parallel to `endpoints`), e.g.
    /// operator-measured points/second of a heterogeneous farm. Empty (or
    /// uniform) weights split every batch evenly, i mod n_live. Must be
    /// finite and positive, with a finite sum, and match endpoints.size()
    /// when non-empty.
    std::vector<double> shard_weights;
    /// Re-dial dead endpoints at most this often, checked between batches
    /// (0 = every batch, negative = never — a dead shard then stays dead
    /// for the backend's lifetime, the pre-elastic behaviour).
    double redial_seconds = 1.0;
};

class RemoteBackend : public core::EvalBackend {
public:
    /// Connects and handshakes every endpoint; throws on any refusal or
    /// unreachable address (mistyped endpoints should be loud, not silently
    /// absorbed by failover).
    explicit RemoteBackend(RemoteBackendOptions options);
    ~RemoteBackend() override;

    RemoteBackend(const RemoteBackend&) = delete;
    RemoteBackend& operator=(const RemoteBackend&) = delete;

    std::vector<core::ResponseMap> evaluate(const std::vector<Vector>& points) override;

    std::string name() const override;
    /// Live shards (the parallelism unit the client can see).
    std::size_t concurrency() const override { return live_endpoints(); }
    /// Client-side view: completed points.
    std::size_t simulations() const override { return simulations_; }
    /// Wire frames written — one per sub-batch, including failover
    /// re-dispatch.
    std::size_t batches() const override { return batches_; }

    std::size_t live_endpoints() const;
    const RemoteBackendOptions& options() const { return options_; }

    /// Re-dial attempts made (between batches) against dead endpoints.
    std::size_t redials_attempted() const { return redials_; }
    /// Dead endpoints that successfully reconnected and re-handshaked.
    std::size_t rejoins() const { return rejoins_; }

    /// The initial shard assignment of the last evaluate() call: element i
    /// is the index into options().endpoints that point i was dispatched
    /// to first (failover re-dispatch is not reflected). Determinism
    /// contract: identical runs produce identical vectors.
    const std::vector<std::size_t>& last_assignment() const { return last_assignment_; }

private:
    struct Conn;

    void maybe_redial();
    /// Assignment weights of the current live set, in live order: the
    /// explicit shard_weights, or 1 each.
    std::vector<double> live_weights(const std::vector<Conn*>& live) const;

    RemoteBackendOptions options_;
    std::vector<std::unique_ptr<Conn>> conns_;
    std::size_t simulations_ = 0;
    std::size_t batches_ = 0;
    std::size_t redials_ = 0;
    std::size_t rejoins_ = 0;
    std::vector<std::size_t> last_assignment_;
};

}  // namespace ehdoe::net
