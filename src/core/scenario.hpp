// ehdoe/core/scenario.hpp
//
// The "several test scenarios" of the DATE'13 abstract, reconstructed as
// three application profiles (DESIGN.md §1.8):
//
//  S1 OfficeHvac   — stationary 52 Hz tone (air-handling plant), periodic
//                    environmental sensing. The baseline scenario for the
//                    accuracy tables.
//  S2 Industrial   — dominant line drifting over 58..72 Hz as machine load
//                    varies, condition monitoring. Exercises the tuning
//                    controller; the optimization experiment (T5) runs here.
//  S3 Transport    — multi-tone + band-limited noise, bursty structural
//                    monitoring. The stress case for RSM accuracy (T3).
//
// A Scenario binds: a vibration source, the harvester/node parameter
// defaults, the six-factor design space of DESIGN.md, and the mapping from
// a natural-units factor vector to a NodeSimConfig. Its make_simulation()
// functor is what the DoE runner executes.
#pragma once

#include <memory>
#include <string>

#include "doe/runner.hpp"
#include "node/node_sim.hpp"

namespace ehdoe::core {

/// Canonical factor names, indexable in this order in every design space the
/// toolkit builds.
inline constexpr const char* kFactorResonance = "f_res0";       // Hz
inline constexpr const char* kFactorDeadband = "deadband";      // Hz
inline constexpr const char* kFactorDuty = "duty";              // fraction
inline constexpr const char* kFactorPayload = "payload";        // bytes
inline constexpr const char* kFactorStorage = "C_store";        // F
inline constexpr const char* kFactorCheckPeriod = "check_period"; // s

/// Canonical response names (the performance indicators).
inline constexpr const char* kRespHarvested = "E_harv";     // J
inline constexpr const char* kRespConsumed = "E_cons";      // J
inline constexpr const char* kRespPackets = "packets";      // delivered count
inline constexpr const char* kRespVmin = "V_min";           // V
inline constexpr const char* kRespDowntime = "downtime";    // s
inline constexpr const char* kRespTuning = "E_tune";        // J

enum class ScenarioId { OfficeHvac, Industrial, Transport };

/// Map a CLI-style scenario name ("S1"/"S2"/"S3") to its id; throws
/// std::invalid_argument naming the expected values otherwise. Shared by
/// every tool that takes --scenario-like input.
ScenarioId scenario_from_name(const std::string& name);

class Scenario {
public:
    /// Build a canonical scenario. `duration` overrides the default horizon
    /// (S1/S3: 300 s, S2: 600 s) when positive.
    static Scenario make(ScenarioId id, double duration = -1.0);

    const std::string& name() const { return name_; }
    const std::string& description() const { return description_; }
    ScenarioId id() const { return id_; }
    double duration() const { return duration_; }

    /// The shared vibration source of the scenario.
    std::shared_ptr<const harvester::VibrationSource> vibration() const { return vibration_; }

    /// The six-factor design space of DESIGN.md over this scenario's ranges.
    doe::DesignSpace design_space() const;

    /// Baseline configuration (factors at their mid/default values).
    node::NodeSimConfig base_config() const;

    /// Configuration for a natural-units factor vector ordered as
    /// design_space().factors(); a non-finite factor is an
    /// std::invalid_argument.
    node::NodeSimConfig configure(const num::Vector& natural) const;

    /// The simulation executed by the DoE runner: runs the node
    /// co-simulation and returns all canonical responses, a batch at a time
    /// as node::simulate_nodes lanes (width node::kNodeLanes).
    doe::Simulation make_simulation() const;

    /// Canonical identity of make_simulation() for persistent evaluation
    /// caches (scenario, horizon, model revision): two processes with equal
    /// fingerprints may share cached responses.
    std::string fingerprint() const;

private:
    ScenarioId id_;
    std::string name_;
    std::string description_;
    double duration_;
    std::shared_ptr<const harvester::VibrationSource> vibration_;
    node::NodeSimConfig base_;
};

/// Response map extracted from metrics (shared with benches/tests).
std::map<std::string, double> responses_from_metrics(const node::NodeMetrics& m);

}  // namespace ehdoe::core
