// ehdoe/node/node_sim.hpp
//
// Long-horizon co-simulation of the complete harvester-powered sensor node:
// vibration source -> tunable harvester (power-flow model) -> storage ->
// {firmware tasks, tuning controller, energy manager}. This is the
// "complete wireless sensor node" simulation the DATE'13 toolkit wraps in
// its DoE flow: one run of NodeSimulation = one experiment = one row of a
// DoE design.
//
// The analogue side advances in bounded continuous sub-steps; the digital
// side is two recurring events, the firmware task and the tuning check,
// each in its own slot. The earlier slot fires first; at equal times, the
// one scheduled first (by a sequence number each scheduling takes). Task
// bursts are orders of magnitude shorter than the gaps between them, so
// their energy is drawn atomically at the firing instant — the standard
// energy-flow abstraction for duty-cycled nodes ([2]'s firmware-level
// model).
//
// A run is one serial chain of divisions and square roots (two 50 ms
// leakage sub-steps of the storage per 0.1 s substep), so simulate_nodes()
// steps kNodeLanes runs on the calling thread in rounds of one substep each,
// phase by phase: every run's work that does not read the storage voltage
// (operating point, actuator, outgoing power), then every run's storage
// update in lockstep, one leakage sub-step of each run at a time, then every
// run's metrics and due events. The operating points a round must solve go
// two at a time through the lanes of a num::Pair. The core overlaps the
// runs' chains while each run's arithmetic stays exactly its own. The
// substep's helpers (PowerFlowModel's solves, Storage::sub_advance,
// OperatingPoint::power, TuningActuator::update/energy_consumed,
// EnergyManager::observe) are inline in their headers so the rounds stay
// lean.
#pragma once

#include <cstddef>
#include <exception>
#include <memory>
#include <vector>

#include "harvester/harvester_system.hpp"
#include "harvester/storage.hpp"
#include "harvester/tuning.hpp"
#include "harvester/vibration.hpp"
#include "node/controller.hpp"
#include "node/energy_manager.hpp"
#include "node/firmware.hpp"
#include "node/metrics.hpp"
#include "node/power_model.hpp"

namespace ehdoe::node {

/// Everything one experiment needs. The vibration source is shared because
/// scenarios reuse one source across many runs.
struct NodeSimConfig {
    std::shared_ptr<const harvester::VibrationSource> vibration;
    harvester::PowerFlowModel::Params harvester;
    harvester::TuningMap tuning_map = harvester::TuningMap::synthetic();
    harvester::ActuatorParams actuator;
    harvester::StorageParams storage;
    NodePowerParams power;
    FirmwareParams firmware;
    TuningControllerParams controller;
    EnergyManagerParams manager;

    double duration = 300.0;        ///< simulated horizon (s), finite
    double initial_resonance_hz = 0.0;  ///< 0 => untuned natural frequency; finite
    /// Disable the tuning subsystem entirely (the "fixed harvester"
    /// baseline of the F1 bench).
    bool tuning_enabled = true;
    /// Continuous sub-step bound for the storage integration (s).
    double max_substep = 0.1;

    void validate() const;
};

/// Sampled trajectory point for plotting benches (F2/F3).
struct TracePoint {
    double t;
    double v_store;
    double f_exc;
    double f_res;
    double p_harvest;
};

/// Runs one experiment; optionally records a trajectory.
class NodeSimulation {
public:
    explicit NodeSimulation(NodeSimConfig config);

    /// Execute the full horizon and return the performance indicators.
    NodeMetrics run();

    /// As run(), but also samples the trajectory every `trace_dt` seconds.
    NodeMetrics run_traced(double trace_dt, std::vector<TracePoint>& trace);

private:
    NodeMetrics execute(double trace_dt, std::vector<TracePoint>* trace);

    NodeSimConfig cfg_;
};

/// Convenience: run a config directly.
NodeMetrics simulate_node(const NodeSimConfig& config);

/// Runs simulate_nodes() interleaves on one thread.
inline constexpr std::size_t kNodeLanes = 4;

/// One config's result from simulate_nodes(): its metrics, or the exception
/// its validation or run threw.
struct NodeOutcome {
    NodeMetrics metrics;
    std::exception_ptr error;
};

/// Run every config, in order, up to kNodeLanes at a time on the calling
/// thread, in rounds of one substep per run; a lane whose run ends takes the
/// next config, and the last run left steps on alone. Each outcome is
/// bitwise what simulate_node() returns (or throws) for its config, and a
/// run that throws fails only its own outcome.
std::vector<NodeOutcome> simulate_nodes(const std::vector<NodeSimConfig>& configs);

}  // namespace ehdoe::node
