// ehdoe/net/remote_backend.hpp
//
// The client half of the distributed evaluation service: a core::EvalBackend
// that shards every batch across N eval-server endpoints (net/eval_server.hpp)
// over persistent TCP connections speaking the wire protocol (net/wire.hpp).
//
//  * Deterministic weighted sharding — the points of a batch are assigned
//    to the live endpoints by a smooth weighted round-robin whose weights
//    derive only from the recorded per-shard serve counts of *completed*
//    batches: each live shard is weighted by its ledger *deficit* against
//    the balanced share, so a shard that recorded fewer serves (it was
//    dead, it joined late) catches up, and a balanced ledger degenerates
//    to the classic i mod n_live in configured endpoint order. The
//    assignment is a pure function of the batch size, the recorded serve
//    ledger and the live set at batch start, so repeated runs shard
//    identically; and because every shard runs the same binary arithmetic
//    on the raw f64 bits, responses are bitwise identical to
//    InProcessBackend no matter how many shards serve them. Heterogeneous
//    farms can pin explicit per-endpoint weights (operator-measured
//    throughput) instead of the recorded ledger.
//
//  * Batched frames — every connection ships its whole sub-batch as one
//    request frame and receives one result frame back (scatter/gather
//    through a reused scratch buffer), so the per-point syscall pair and
//    round-trip collapse to one per sub-batch.
//
//  * Pipelined connections — each endpoint keeps up to four frames in
//    flight (responses return in FIFO order), hiding the network
//    round-trip behind the simulation time.
//
//  * Failover — when an endpoint dies mid-batch (connection drops), its
//    unsent *and* in-flight points are re-dispatched round-robin to the
//    surviving shards; simulations are pure functions, so a re-executed
//    point yields the same bits. The batch completes with identical results
//    as long as one shard survives; when none do, every stranded point
//    fails with a clear error thrown in input (= design) order.
//
//  * Re-dial — a dead endpoint is re-dialed (and re-handshaked) between
//    batches, throttled by `redial_seconds`, so a restarted eval-server
//    rejoins a long optimization run instead of staying dead for the
//    backend's lifetime. Liveness only changes between batches, so the
//    assignment stays a pure function of recorded state at batch start and
//    rejoin points stay bitwise identical to InProcessBackend.
//
//  * Handshake — construction connects and handshakes every endpoint
//    (protocol version, simulation fingerprint, replicate count); any
//    mismatch throws with the server's rejection message instead of
//    exchanging garbage frames. The version must equal the server's
//    kProtocolVersion exactly: there is no downgrade.
//
//  * Observability — shard_stats() polls every configured endpoint with
//    the stats frame (a fresh connection outside the eval path) and merges
//    the server counters with the client-side view: liveness, recorded
//    serve counts and current assignment weights.
//
// Failure contract (shared with every backend): a simulation that fails
// remotely surfaces as a std::runtime_error thrown in input order after
// in-flight work drains.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
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

/// shard_stats(): one configured endpoint's merged client + server view.
struct ShardReport {
    Endpoint endpoint;
    bool alive = false;      ///< client-side connection liveness right now
    bool reachable = false;  ///< the stats query below succeeded
    /// Points this backend recorded the shard serving in completed batches
    /// (the weighted-sharding ledger).
    std::uint64_t completed_points = 0;
    /// Effective weight the next batch's assignment would use.
    double weight = 0.0;
    ShardStats stats;   ///< server-reported counters (valid when reachable)
    std::string error;  ///< diagnosis when not reachable
};

struct RemoteBackendOptions {
    /// Shards, in the order that defines the deterministic assignment.
    std::vector<Endpoint> endpoints;
    /// Simulation identity sent in the handshake; must equal each server's
    /// configured fingerprint.
    std::string fingerprint;
    /// Replicates the servers are expected to average (handshake-checked).
    std::size_t replicates = 1;
    /// Explicit per-endpoint weights (parallel to `endpoints`), e.g.
    /// operator-measured points/second of a heterogeneous farm; uniform
    /// weights assign exactly i mod n. Empty: weights derive from the
    /// recorded serve ledger. Must be finite and positive, with a finite
    /// sum, and match endpoints.size() when non-empty.
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
    /// Client-side view: completed points x replicates.
    std::size_t simulations() const override { return simulations_; }
    /// Wire frames dispatched — one per sub-batch, including failover
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

    /// Poll every configured endpoint with the stats frame and merge the
    /// answers with the client-side liveness/ledger/weight view. Safe to
    /// call from any thread at any time — a monitoring thread may poll
    /// while evaluate() runs (liveness/ledger reads are synchronized; the
    /// snapshot is simply as of the poll instant).
    std::vector<ShardReport> shard_stats() const;

private:
    struct Conn;

    void maybe_redial();
    /// Effective assignment weights of the current live set, in live
    /// order: explicit shard_weights, or catch-up weights derived from
    /// each shard's serve-ledger deficit against the balanced share of
    /// (ledger + batch_points).
    std::vector<double> live_weights(const std::vector<Conn*>& live,
                                     std::size_t batch_points) const;

    RemoteBackendOptions options_;
    std::vector<std::unique_ptr<Conn>> conns_;
    /// Guards Conn::alive and Conn::completed_points against concurrent
    /// readers (shard_stats()/live_endpoints() from a monitoring thread)
    /// while evaluate() mutates them. Leaf lock: may be taken under the
    /// per-batch mutex, never the other way around.
    mutable std::mutex state_mutex_;
    std::size_t simulations_ = 0;
    std::size_t batches_ = 0;
    std::size_t redials_ = 0;
    std::size_t rejoins_ = 0;
    std::vector<std::size_t> last_assignment_;
};

}  // namespace ehdoe::net
