// The benchmark's workloads. Each is a closed loop: main.cpp calls
// run_unit() again only after the previous unit returned, on one client
// thread. Inputs derive from Config::seed only.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {

struct Config {
    std::uint64_t seed = 1;
    /// Shrink every problem (horizons, batch sizes) for the self-test.
    bool tiny = false;
    std::string eval_server;   ///< ehdoe-eval-server binary
    std::string store_server;  ///< ehdoe-store-server binary
    std::string mock_sim;      ///< mock_hdl_sim binary
};

/// What one unit did besides its wall time.
struct UnitResult {
    /// Wall of the unit's timed work; output checks run outside it.
    double unit_s = 0.0;
    double part_a_s = 0.0;  ///< the workload's first sub-case
    double part_b_s = 0.0;  ///< the workload's second sub-case
    double work = 0.0;      ///< the workload's work counter for this unit
    std::string failure;    ///< first failed output check; empty when all passed
};

/// Unit walls of the untraced units, in milliseconds.
struct UnitSamples {
    Samples unit_ms;
    Samples part_a_ms;
    Samples part_b_ms;
    Samples work;  ///< UnitResult::work of each unit
};

class Workload {
public:
    virtual ~Workload() = default;

    /// How a timing follows the host's speed levels: not at all (a timer
    /// sets it), like user-space CPU work (scaled by the reference slices
    /// around it), like socket and file work, which the kernel does
    /// (reference plus fork slices), or like launching a program (spawn
    /// slices). See harness.hpp.
    enum class Speed { Raw, Cpu, Kernel, Launch };
    /// `rest` is the unit wall outside parts a and b.
    struct Calibrated {
        Speed setup = Speed::Cpu;
        Speed part_a = Speed::Cpu;
        Speed part_b = Speed::Cpu;
        Speed rest = Speed::Cpu;
    };
    virtual Calibrated calibrated() const { return {}; }

    /// One complete set-up, replacing the previous one (main.cpp times
    /// several and keeps the last): scenario build, daemon start plus
    /// handshakes, first-touch warm-up.
    virtual void setup() = 0;

    /// One closed-loop unit. `tracer` is non-null in traced units, which
    /// compose the layers themselves and time each boundary.
    virtual UnitResult run_unit(std::uint64_t index, Tracer* tracer) = 0;

    /// Results under the names the workload's users know (flow_p50_ms,
    /// pwl_drms, cold_points_per_s, ...), for the detail record.
    virtual void named_results(const UnitSamples& untraced, MetricTable& out) const = 0;

    /// Per-layer metrics over `units` traced units. Returns the sum of
    /// the layers' self times, which should cover the traced unit wall.
    virtual double layer_metrics(const Tracer& tracer, std::size_t units,
                                 MetricTable& out) const = 0;
};

std::unique_ptr<Workload> make_paper_flow(const Config& config);
std::unique_ptr<Workload> make_circuit_transient(const Config& config);
std::unique_ptr<Workload> make_farm_store(const Config& config);
std::unique_ptr<Workload> make_exec_batch(const Config& config);

}  // namespace perfbench
