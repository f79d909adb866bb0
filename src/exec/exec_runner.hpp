// ehdoe/exec/exec_runner.hpp
//
// The launch engine behind the exec backend: turns one natural-unit point
// into one (or more, for replicates/retries) external simulator process
// runs, per the SimRecipe. Each launch gets a fresh scratch directory
// holding the rendered deck and the stdout/stderr captures, and is
// started with posix_spawnp: the child borrows this process's memory until
// it execs, so a launch never copies the page tables of a large,
// multi-threaded parent. The child runs in the scratch directory, with the
// captures on fds 0-2, in its own process group so a wall-clock timeout
// can kill the simulator *and* everything it spawned. It inherits nothing
// else of the library's, because the library opens every descriptor it
// owns close-on-exec. The wait polls a pidfd (Linux >= 5.3) for the time
// left, so a timed launch ends when the simulator does. Thread-safe: any
// number of threads may run_point() concurrently (the exec backend's
// worker threads, or the eval-server's connection pool) — every launch
// draws a unique sequence number for its scratch dir.
//
// Outcome mapping (the farm's shared failure vocabulary):
//  * exit 0 + all extractors match      -> ok, named responses
//  * the command cannot be exec'd       -> exit status 127 (not found) or
//    126 (any other reason), the reason on the stderr capture, then as a
//    nonzero exit
//  * nonzero exit / killed by a signal  -> relaunch while the recipe's
//    retry budget lasts, then error (with the exit status and a stderr
//    tail — an HDL simulator's last words are usually the diagnosis)
//  * wall-clock timeout                 -> SIGKILL to the process group,
//    error; never retried (a hung simulator would just hang again)
//  * extractor misses / malformed value -> error naming the response
//
// Scratch dirs are removed as soon as their point is resolved unless the
// recipe sets keep-artifacts; the per-runner scratch root is removed on
// destruction when it is empty.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <regex>
#include <string>
#include <vector>

#include "core/eval_backend.hpp"
#include "core/telemetry.hpp"
#include "exec/sim_recipe.hpp"

namespace ehdoe::exec {

/// What one point's evaluation came to.
struct ExecOutcome {
    bool ok = false;
    core::ResponseMap responses;  ///< replicate-averaged, like every backend
    std::string error;            ///< diagnosis when !ok
    bool timed_out = false;       ///< a launch hit the recipe timeout
};

class ExecRunner {
public:
    /// Validates the recipe's command/extractors and creates the scratch
    /// root. `replicates` launches run per point, responses averaged with
    /// the exact arithmetic of core::simulate_replicated.
    ExecRunner(SimRecipe recipe, std::size_t replicates = 1);
    /// Removes the scratch root when no artifacts were kept.
    ~ExecRunner();

    ExecRunner(const ExecRunner&) = delete;
    ExecRunner& operator=(const ExecRunner&) = delete;

    /// Evaluate one point: launch, await, parse, retry per the recipe.
    /// `index` only feeds the {index} substitution and artifact names.
    /// Never throws for simulator failures — those come back as !ok
    /// outcomes so the caller owns the design-order error contract.
    ExecOutcome run_point(const Vector& natural, std::size_t index);

    const SimRecipe& recipe() const { return recipe_; }
    std::size_t replicates() const { return replicates_; }
    const std::string& scratch_root() const { return scratch_root_; }

    // Lifetime counters (monotonic, readable from any thread).
    /// Simulator processes launched (replicates and relaunches included).
    std::size_t launches() const { return launches_.load(); }
    /// Launches that hit the recipe's wall-clock timeout.
    std::size_t timeouts() const { return timeouts_.load(); }
    /// Relaunches after a nonzero exit or crash (the exec pool's analogue
    /// of a worker respawn; bounded per point by the recipe's retries).
    std::size_t relaunches() const { return relaunches_.load(); }

    /// Snapshot of the lifetime per-point wall-time histogram
    /// (microseconds, retries and replicates included — the cost the
    /// caller actually paid per point).
    core::telemetry::LatencyHistogram latency_histogram() const;

private:
    struct LaunchResult {
        bool launched = false;   ///< spawn/wait machinery itself worked
        bool timed_out = false;
        bool signaled = false;
        int exit_code = -1;
        int signal = 0;
        std::string diagnosis;   ///< machinery failure when !launched
    };

    /// One process run in `workdir`; returns how it ended.
    LaunchResult launch_once(const Vector& natural, std::size_t index,
                             const std::string& workdir);
    /// Parse the output of a successful launch into `out`; false with a
    /// diagnosis in `error` when an extractor misses or a value is
    /// malformed.
    bool parse_output(const std::string& workdir, core::ResponseMap& out,
                      std::string& error) const;

    SimRecipe recipe_;
    std::size_t replicates_;
    /// Regex extractors compiled once (parallel to recipe_.extractors;
    /// column entries hold a default-constructed placeholder) — regex
    /// construction is far too expensive to repeat per launch.
    std::vector<std::regex> compiled_;
    std::string scratch_root_;
    std::atomic<std::size_t> seq_{0};
    std::atomic<std::size_t> launches_{0};
    std::atomic<std::size_t> timeouts_{0};
    std::atomic<std::size_t> relaunches_{0};
    /// Per-point wall times; recorded by concurrent run_point() callers.
    mutable std::mutex latency_mutex_;
    core::telemetry::LatencyHistogram latency_;
};

}  // namespace ehdoe::exec
