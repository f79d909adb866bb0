// Shared plumbing of the benchmark binary: timing samples, the metric
// table printed as JSON, host context, scratch directories and child
// daemons.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/eval_backend.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: derives independent per-unit seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// A bag of timing samples (any unit) with exact-rank quantiles.
class Samples {
public:
    void add(double v) { values_.push_back(v); }
    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    double sum() const;
    /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
    double quantile(double q) const;
    double median() const { return quantile(0.5); }

private:
    std::vector<double> values_;
};

/// One named metric with its unit, in print order.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

class MetricTable {
public:
    void set(const std::string& name, double value, const std::string& unit);
    const std::vector<Metric>& items() const { return items_; }
    /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
    std::string to_json() const;

private:
    std::vector<Metric> items_;
};

/// JSON string literal of `s` (quotes included).
std::string json_string(const std::string& s);
/// Full-precision JSON number ("null" for non-finite values).
std::string json_number(double v);

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mib();

/// Usable CPUs: work done by `threads` busy threads in a fixed window over
/// the work one thread does in the same window.
double effective_parallelism(std::size_t threads, double window_seconds);

/// Seconds one fixed slice of reference work takes right now: small dense
/// matrix-vector products, transcendental functions, short-lived
/// allocations and map lookups — the instruction mix of the simulation
/// kernels, in the benchmark's own code, so no change to the library can
/// move it. Sampled next to every unit, it measures the host's current
/// single-core speed.
double reference_slice();

/// reference_slice() on a host at nominal speed (the fast level of the
/// 4-vCPU development VM described in README.md). A calibrated time is the
/// raw time scaled by this over the mean of the slices around it.
inline constexpr double kReferenceNominalSeconds = 100e-6;

/// Seconds to fork this process, let the child exit and reap it: the
/// kernel share of launching a simulator process, in the benchmark's own
/// code.
double fork_slice();

/// fork_slice() on the development VM at its fast level.
inline constexpr double kForkNominalSeconds = 350e-6;

/// Seconds to launch this program again the way exec::ExecRunner launches
/// a simulator — scratch directory, deck file, `--echo DECK` with stdout
/// captured to a file, read back, cleanup: fork, exec, dynamic loading,
/// static initialization and file work, before any simulating.
double spawn_slice();

/// The child side of spawn_slice(): copy the file at `path` to stdout.
int echo_file(const char* path);

/// spawn_slice() on the development VM at its fast level.
inline constexpr double kSpawnNominalSeconds = 1.6e-3;

/// Bitwise equality of two response maps (same names, same 64-bit values).
bool bitwise_equal(const ehdoe::core::ResponseMap& a, const ehdoe::core::ResponseMap& b);

/// A fresh directory under the temporary root (TMPDIR), removed with its
/// contents on destruction.
class ScratchDir {
public:
    explicit ScratchDir(const std::string& stem);
    ~ScratchDir();
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
    std::string file(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

/// A child daemon started with `--port 0`: the constructor waits for its
/// "listening on HOST:PORT" line and takes the port from it; the destructor
/// stops it (SIGTERM, then SIGKILL) and reaps it. The child also dies with
/// this process (PR_SET_PDEATHSIG), so no exit path leaves it running.
class Daemon {
public:
    /// `log_path` receives the daemon's stdout and stderr.
    Daemon(const std::vector<std::string>& argv, const std::string& log_path,
           double timeout_seconds = 20.0);
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    const std::string& endpoint() const { return endpoint_; }

private:
    void stop();

    pid_t pid_ = -1;
    std::string endpoint_;
};

/// Set by SIGINT/SIGTERM; measurement loops stop early and every
/// destructor (daemons, scratch directories) still runs.
bool stop_requested();
void install_stop_handlers();

}  // namespace perfbench
