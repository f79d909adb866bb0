#include "core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace ehdoe::core {

namespace {

std::shared_ptr<const harvester::VibrationSource> make_vibration(ScenarioId id,
                                                                 double duration) {
    using namespace harvester;
    switch (id) {
        case ScenarioId::OfficeHvac:
            // Air-handling plant: clean 72 Hz line at 0.6 m/s^2 (inside the
            // 65-85 Hz tuning range, so tuned operation is attainable).
            return std::make_shared<SineVibration>(0.8, 72.0);
        case ScenarioId::Industrial: {
            // Machine load cycle: dominant line wandering 66 -> 82 -> 71 Hz.
            std::vector<double> t{0.0, 0.25 * duration, 0.5 * duration, 0.75 * duration,
                                  duration};
            std::vector<double> f{66.0, 74.0, 82.0, 68.0, 71.0};
            return std::make_shared<DriftVibration>(1.2, std::move(t), std::move(f));
        }
        case ScenarioId::Transport: {
            // Dominant 78 Hz structural mode + sub-harmonic + broadband noise.
            auto tones = std::make_shared<MultiToneVibration>(std::vector<MultiToneVibration::Tone>{
                {1.0, 78.0}, {0.3, 39.0}, {0.2, 95.0}});
            return std::make_shared<NoisyVibration>(tones, 0.1);
        }
    }
    throw std::invalid_argument("Scenario: unknown id");
}

}  // namespace

ScenarioId scenario_from_name(const std::string& name) {
    if (name == "S1") return ScenarioId::OfficeHvac;
    if (name == "S2") return ScenarioId::Industrial;
    if (name == "S3") return ScenarioId::Transport;
    throw std::invalid_argument("unknown scenario '" + name + "' (expected S1, S2 or S3)");
}

Scenario Scenario::make(ScenarioId id, double duration) {
    Scenario s;
    s.id_ = id;
    switch (id) {
        case ScenarioId::OfficeHvac:
            s.name_ = "S1-office-hvac";
            s.description_ = "Stationary 72 Hz HVAC vibration, periodic environmental sensing";
            s.duration_ = duration > 0.0 ? duration : 300.0;
            break;
        case ScenarioId::Industrial:
            s.name_ = "S2-industrial";
            s.description_ = "Drifting 66-82 Hz machinery line, condition monitoring";
            s.duration_ = duration > 0.0 ? duration : 600.0;
            break;
        case ScenarioId::Transport:
            s.name_ = "S3-transport";
            s.description_ = "Multi-tone + noise structural excitation, bursty reporting";
            s.duration_ = duration > 0.0 ? duration : 300.0;
            break;
    }
    s.vibration_ = make_vibration(id, s.duration_);

    // Shared hardware defaults (the published parameter class of [2]).
    node::NodeSimConfig c;
    c.vibration = s.vibration_;
    c.harvester.generator = harvester::MicrogeneratorParams{};
    c.harvester.multiplier = harvester::MultiplierParams{};
    c.tuning_map = harvester::TuningMap::synthetic();
    c.actuator = harvester::ActuatorParams{};
    c.storage = harvester::StorageParams{};
    c.power = node::NodePowerParams{};
    c.firmware = node::FirmwareParams{};
    c.controller = node::TuningControllerParams{};
    c.manager = node::EnergyManagerParams{};
    c.duration = s.duration_;
    c.initial_resonance_hz = 0.0;
    s.base_ = std::move(c);
    return s;
}

doe::DesignSpace Scenario::design_space() const {
    const harvester::TuningMap map = base_.tuning_map;
    std::vector<doe::Factor> f;
    f.push_back({kFactorResonance, map.f_min(), map.f_max(), false});
    f.push_back({kFactorDeadband, 0.25, 2.5, false});
    f.push_back({kFactorDuty, 5e-4, 2e-2, true});          // log scale
    f.push_back({kFactorPayload, 16.0, 256.0, false});
    f.push_back({kFactorStorage, 0.05, 0.5, true});        // log scale
    f.push_back({kFactorCheckPeriod, 1.0, 60.0, true});    // log scale
    return doe::DesignSpace(std::move(f));
}

node::NodeSimConfig Scenario::base_config() const { return base_; }

node::NodeSimConfig Scenario::configure(const num::Vector& natural) const {
    if (natural.size() != 6)
        throw std::invalid_argument("Scenario::configure: expects the 6 canonical factors");
    // A NaN slips through the clamps below (and would be cast to an
    // integer payload); eval-server frames carry raw doubles, so any client
    // can send one.
    const char* const names[6] = {kFactorResonance, kFactorDeadband, kFactorDuty,
                                  kFactorPayload,   kFactorStorage,  kFactorCheckPeriod};
    for (std::size_t i = 0; i < 6; ++i) {
        if (!std::isfinite(natural[i]))
            throw std::invalid_argument(std::string("Scenario::configure: ") + names[i] +
                                        " must be finite");
    }
    node::NodeSimConfig c = base_;
    // Clamp to physical validity: circumscribed designs may probe slightly
    // beyond the declared ranges (CCD axial points), which must not turn
    // into meaningless negative settings.
    c.initial_resonance_hz =
        std::clamp(natural[0], c.tuning_map.f_min(), c.tuning_map.f_max());
    c.controller.deadband_hz = std::max(natural[1], 0.01);
    const double duty = std::clamp(natural[2], 1e-5, 0.5);
    const auto payload = static_cast<std::size_t>(std::clamp(natural[3], 1.0, 1024.0) + 0.5);
    c.firmware.payload_bytes = payload;
    c.firmware.task_period = node::FirmwareParams::period_for_duty(c.power, payload, duty);
    c.storage.capacitance = std::max(natural[4], 1e-3);
    c.controller.check_period = std::max(natural[5], 0.1);
    return c;
}

doe::Simulation Scenario::make_simulation() const {
    // Copy `this` state into the closure so the functor outlives the
    // Scenario and is safe to run from worker threads. A batch runs as
    // node::simulate_nodes lanes; a point that fails to configure or to run
    // fails only its own outcome.
    const Scenario self = *this;
    return doe::Simulation::batched(
        node::kNodeLanes,
        [self](const num::Vector* points, std::size_t n, core::PointOutcome* out) {
            std::vector<node::NodeSimConfig> configs;
            std::vector<std::size_t> point_of;  // configs[j] is points[point_of[j]]
            configs.reserve(n);
            point_of.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                try {
                    configs.push_back(self.configure(points[i]));
                    point_of.push_back(i);
                } catch (...) {
                    out[i].error = std::current_exception();
                }
            }
            const std::vector<node::NodeOutcome> runs = node::simulate_nodes(configs);
            for (std::size_t j = 0; j < runs.size(); ++j) {
                core::PointOutcome& o = out[point_of[j]];
                if (runs[j].error) {
                    o.error = runs[j].error;
                } else {
                    o.responses = responses_from_metrics(runs[j].metrics);
                }
            }
        });
}

std::string Scenario::fingerprint() const {
    // The model revision must be bumped whenever the co-simulation's
    // numerics change: stale persisted responses would otherwise survive.
    char buf[64];
    std::snprintf(buf, sizeof buf, "/duration=%.6f/model=1", duration_);
    return "ehdoe/" + name_ + buf;
}

std::map<std::string, double> responses_from_metrics(const node::NodeMetrics& m) {
    return {
        {kRespHarvested, m.energy_harvested},
        {kRespConsumed, m.energy_consumed},
        {kRespPackets, static_cast<double>(m.packets_delivered)},
        {kRespVmin, m.v_min},
        {kRespDowntime, m.downtime},
        {kRespTuning, m.energy_tuning},
    };
}

}  // namespace ehdoe::core
