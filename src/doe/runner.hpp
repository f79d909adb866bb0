// ehdoe/doe/runner.hpp
//
// The vocabulary of executing a design: the simulation functor that maps a
// design point (in natural units) to named responses, the collected
// responses of a run, and the options that describe the evaluation stack.
// doe::BatchRunner (batch_runner.hpp) runs designs with them: dedup +
// memoization on top of a pluggable core::EvalBackend — in-process
// thread-pooled execution (default), external simulator processes (exec),
// remote eval-server shards, and optional persistent and shared result
// tiers (see RunnerOptions).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/eval_backend.hpp"
#include "doe/design.hpp"
#include "numerics/stats.hpp"

namespace ehdoe::doe {

/// A simulation: natural-units factor vector -> named responses (shared
/// vocabulary with the evaluation-backend layer).
using Simulation = core::Simulation;

/// Named responses of one simulation.
using ResponseMap = core::ResponseMap;

/// Collected responses of a design execution, column-per-response.
struct RunResults {
    Design design;                       ///< the (coded) design that was run
    Matrix natural;                      ///< natural-unit points actually simulated
    std::vector<std::string> response_names;
    Matrix responses;                    ///< runs x responses
    double wall_seconds = 0.0;           ///< total execution time
    std::size_t simulations = 0;         ///< simulator invocations
    std::size_t cache_hits = 0;          ///< design points served from the cache

    /// Column of a named response; throws for unknown names.
    std::vector<double> response(const std::string& name) const;
    std::size_t response_index(const std::string& name) const;
};

struct RunnerOptions {
    /// External-simulator recipe file (exec/sim_recipe.hpp); non-empty
    /// routes evaluation through an exec::ExecBackend that launches one
    /// co-simulator process per point instead of calling the Simulation —
    /// which may then be null. `threads` bounds concurrent simulator
    /// processes; the recipe's content hash folds into the persistent-cache
    /// identity, so cached responses never cross recipe revisions. Ignored
    /// when `endpoints` is non-empty (the remote servers own their own
    /// recipes).
    std::string recipe_file;
    /// Remote eval-server endpoints ("host:port"). Non-empty routes
    /// evaluation through a net::RemoteBackend that shards each batch
    /// across these servers (see net/remote_backend.hpp) instead of a
    /// local backend; `threads` then describes the remote servers and is
    /// ignored locally, while `cache_fingerprint` doubles as the handshake
    /// identity the servers must match.
    /// Dead shards are re-dialed at most once a second between batches, so
    /// a restarted eval-server rejoins a long run.
    std::vector<std::string> endpoints;
    /// Number of workers (threads, or concurrent simulator processes with
    /// `recipe_file`); 1 = serial, 0 = all hardware threads. Simulations
    /// must be thread-safe pure functions of their input (all toolkit
    /// simulations are).
    std::size_t threads = 1;
    /// Persistent evaluation cache file; non-empty wraps the backend in a
    /// core::PersistentCache so repeated runs amortize simulations across
    /// processes. Pair with `cache_fingerprint` to identify the simulation.
    std::string cache_file;
    /// Identity of the simulation behind `cache_file` (scenario name,
    /// horizon, ...); a mismatch invalidates the snapshot.
    std::string cache_fingerprint;
    /// Shared result store service ("host:port", store/store_server.hpp);
    /// non-empty wraps the backend in a store::StoreBackend consulted
    /// between the local snapshot and simulation, so independent farm runs
    /// share results through one daemon. Keys carry the same identity as
    /// `cache_file` (cache_fingerprint + recipe hash), so a store hit is
    /// bit-identical to a local simulation by construction.
    /// Construction throws when the store is unreachable; a store dying
    /// *mid-run* degrades to simulation instead of failing the run.
    std::string store_endpoint;
    /// Non-empty enables trace recording (core/telemetry.hpp) for the
    /// runner's lifetime and writes a Chrome trace-event JSON file here on
    /// destruction. Strictly observational: results are bitwise identical
    /// with tracing on or off. Merge with per-server traces via ehdoe-trace.
    std::string trace_file;
    /// Non-empty opens a core::telemetry::Journal here for the runner's
    /// lifetime: one JSONL line per farm incident (redial, rejoin, failover
    /// re-dispatch, exec timeout/relaunch, ...). Runners alive at the same
    /// time each keep their own journal, and runners on one file share it.
    /// Construction throws when the file cannot be opened. Strictly
    /// observational, like trace_file; with tracing on, the same incidents
    /// are trace instants too.
    std::string event_log_file;
};

}  // namespace ehdoe::doe
