// ehdoe/net/eval_server.hpp
//
// The eval-server daemon: one shard of the distributed evaluation service.
// Listens on a TCP socket, hosts a pool of in-process worker threads — or,
// in exec mode, drives an *external simulator process* per point from a
// SimRecipe (exec/) — and serves the wire protocol (net/wire.hpp):
//
//   client                         server
//     | -- hello (version, fp) ------->|   handshake: a protocol version
//     | <- welcome (ok / reject) ------|   other than kProtocolVersion, or a
//     | -- batch request (k points) -->|   mismatched fingerprint, is refused
//     | <- batch result (k frames) ----|   with a message
//
// A net::TcpServer (net/tcp_server.hpp) accepts, and serves each
// connection on its own thread with the blocking readers and writers of
// net/wire.hpp: the thread reads one frame, evaluates it, answers it, and
// only then reads the next, so frames are answered in order. (A
// RemoteBackend writes one frame carrying a whole sub-batch and reads its
// result back before writing the next.) A frame's points run as tasks on
// the shared worker pool, each task as many consecutive points as the
// Simulation's width (one point in exec mode, or for a per-point model),
// but no more than the frame's even share per worker, so a frame never
// runs as fewer tasks than min(its points, workers): tasks from one frame,
// and from concurrent connections, evaluate in parallel up to the
// configured worker count, and `workers` bounds the evaluations of all
// connections together. The result frame goes back in one send on a
// TCP_NODELAY socket.
//
// Observability: every evaluated point's wall time (its task's, for a
// batched model) feeds a lifetime latency histogram (core/telemetry.hpp)
// served in the stats reply; with tracing enabled the accept/handshake path
// records spans, and every point one eval span. Both are strictly
// observational — results are bitwise identical either way.
//
// A simulation that throws answers *that* point with an error frame (a
// batched call that throws, each point it left unanswered); the
// connection (and the server) stays up. In exec mode a simulator process
// that crashes or times out is likewise one error frame (after the
// recipe's relaunch budget) — one poisoned point cannot take the shard
// down. The ehdoe-eval-server binary
// (tools/eval_server_main.cpp) wraps this class behind CLI flags.
//
// A connection that opens with the stats magic instead of the eval
// handshake is answered with one stats frame (per-server counters +
// uptime) and closed. It has its own thread and never touches the worker
// pool, so a farm dashboard polling stats is answered while evaluations
// run and cannot delay them (ehdoe-farm, tools/farm_main.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/telemetry.hpp"
#include "exec/sim_recipe.hpp"
#include "net/tcp_server.hpp"
#include "net/wire.hpp"

namespace ehdoe::core {
class ThreadPool;
}

namespace ehdoe::exec {
class ExecRunner;
}

namespace ehdoe::net {

struct EvalServerOptions {
    /// Interface to bind; loopback by default (shards on one box / tests).
    std::string host = "127.0.0.1";
    /// TCP port; 0 binds an ephemeral port, readable via port() after
    /// start().
    std::uint16_t port = 0;
    /// Evaluation worker threads; 0 = all hardware threads.
    std::size_t workers = 1;
    /// Exec mode: serve an external simulator described by this recipe
    /// (exec/sim_recipe.hpp) instead of an in-process Simulation — each
    /// point becomes one simulator process launch, run by a shared
    /// exec::ExecRunner with the recipe's timeout/retry policy. The `sim`
    /// ctor argument may then be null; `workers` still bounds concurrent
    /// launches.
    std::optional<exec::SimRecipe> recipe;
    /// Simulation identity (e.g. Scenario::fingerprint()); a client whose
    /// hello carries a different fingerprint is rejected at handshake.
    std::string fingerprint;
    /// Metrics sampling interval (core/metrics.hpp): > 0 runs a sampler
    /// thread appending one snapshot row per interval to the ring
    /// (core::metrics::kDefaultRingCapacity rows) the stats reply carries.
    /// 0 (default) disables sampling entirely. Strictly observational
    /// either way.
    double metrics_interval_seconds = 0.0;
};

class EvalServer {
public:
    EvalServer(core::Simulation sim, EvalServerOptions options);
    /// stop()s if still running.
    ~EvalServer();

    EvalServer(const EvalServer&) = delete;
    EvalServer& operator=(const EvalServer&) = delete;

    /// Bind + listen + start accepting. Throws on bind failure.
    void start();
    /// Shut every connection down, join its thread once the points of its
    /// frame in flight that had started are evaluated, and stop the pool.
    /// Points that had not started are never evaluated or counted, and
    /// their frame gets no answer. Idempotent.
    void stop();
    bool running() const { return running_.load(); }

    /// The bound TCP port (resolves ephemeral binds); valid after start().
    std::uint16_t port() const { return port_; }
    const EvalServerOptions& options() const { return options_; }

    // Lifetime counters (monotonic, readable from any thread).
    std::size_t connections_accepted() const { return server_.connections_accepted(); }
    std::size_t handshakes_rejected() const { return rejected_.load(); }
    /// Points answered with a result frame (one simulation each).
    std::size_t points_served() const { return served_.load(); }
    /// Points answered with an error frame (sim threw or simulator failed).
    std::size_t points_failed() const { return failed_.load(); }
    /// Exec simulators relaunched after nonzero exits (0 in-process).
    std::size_t worker_respawns() const;
    /// Points whose simulator hit the exec recipe's timeout (exec mode).
    std::size_t points_timed_out() const;
    /// Points of the tasks running right now (worker occupancy).
    std::size_t points_in_flight() const { return in_flight_.load(); }
    /// Stats connections answered (monitoring traffic, not eval traffic).
    std::size_t stats_served() const { return stats_served_.load(); }

    /// Snapshot of this server's lifetime eval-latency histogram (wall
    /// time per point, microseconds) — what the stats reply carries.
    core::telemetry::LatencyHistogram latency_histogram() const;

    /// Force one metrics sample now (deterministic tests; no-op when
    /// metrics sampling is disabled).
    void sample_metrics_now();
    /// Snapshot of the metrics ring — what the stats reply carries
    /// (empty when sampling is disabled).
    core::metrics::RingSnapshot metrics_snapshot() const;

    /// Snapshot of the counters in stats-frame shape — the exact payload a
    /// stats connection is answered with.
    ShardStats stats() const;

private:
    /// One connection, from its opening magic to the peer's leaving.
    void serve_connection(int fd, std::atomic<bool>& handshaken);
    /// One pool task per core::lane_batch() points; returns once every
    /// point is evaluated.
    void evaluate_frame(const std::vector<Vector>& points, std::vector<EvalResult>& results);
    /// One pool task: `count` consecutive points in one call of the model.
    void evaluate_task(const Vector* points, std::size_t count, EvalResult* results);

    core::Simulation sim_;
    EvalServerOptions options_;

    std::uint16_t port_ = 0;
    std::atomic<bool> running_{false};

    std::unique_ptr<core::ThreadPool> pool_;
    std::unique_ptr<exec::ExecRunner> exec_runner_;

    std::atomic<std::size_t> rejected_{0};
    std::atomic<std::size_t> served_{0};
    std::atomic<std::size_t> failed_{0};
    std::atomic<std::size_t> stats_served_{0};
    std::atomic<std::size_t> in_flight_{0};
    std::atomic<std::size_t> exec_seq_{0};
    std::chrono::steady_clock::time_point started_at_{};

    /// Per-point eval wall times; recorded by worker tasks, snapshotted by
    /// the stats path — hence the guard.
    mutable std::mutex latency_mutex_;
    core::telemetry::LatencyHistogram latency_;

    /// The health plane: counter/gauge series sampled into a ring by a
    /// dedicated thread, so an idle server keeps sampling. Null when
    /// sampling is disabled.
    std::unique_ptr<core::metrics::Registry> metrics_;
    std::unique_ptr<core::metrics::Sampler> metrics_sampler_;
    void setup_metrics();

    /// Its connection threads use every member above.
    TcpServer server_;
};

}  // namespace ehdoe::net
