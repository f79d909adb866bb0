#include "node/node_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ehdoe::node {

void NodeSimConfig::validate() const {
    if (!vibration) throw std::invalid_argument("NodeSimConfig: vibration source required");
    if (!(duration > 0.0)) throw std::invalid_argument("NodeSimConfig: duration > 0");
    if (!(max_substep > 0.0)) throw std::invalid_argument("NodeSimConfig: max_substep > 0");
    storage.validate();
    power.validate();
    firmware.validate();
    controller.validate();
    manager.validate();
}

NodeSimulation::NodeSimulation(NodeSimConfig config) : cfg_(std::move(config)) {
    cfg_.validate();
}

NodeMetrics NodeSimulation::run() { return execute(0.0, nullptr); }

NodeMetrics NodeSimulation::run_traced(double trace_dt, std::vector<TracePoint>& trace) {
    if (!(trace_dt > 0.0)) throw std::invalid_argument("run_traced: trace_dt > 0");
    trace.clear();
    return execute(trace_dt, &trace);
}

NodeMetrics NodeSimulation::execute(double trace_dt, std::vector<TracePoint>* trace) {
    const harvester::VibrationSource& vib = *cfg_.vibration;
    harvester::PowerFlowModel pf(cfg_.harvester);
    harvester::Storage storage(cfg_.storage);
    harvester::TuningActuator actuator(
        cfg_.actuator,
        cfg_.tuning_map.separation_for(cfg_.initial_resonance_hz > 0.0
                                           ? cfg_.initial_resonance_hz
                                           : cfg_.harvester.generator.natural_freq_hz));
    Firmware firmware(cfg_.firmware, cfg_.power);
    TuningController controller(cfg_.controller, &cfg_.tuning_map);
    EnergyManager manager(cfg_.manager, storage.voltage() >= cfg_.manager.v_on);

    NodeMetrics m;
    m.duration = cfg_.duration;
    m.v_min = storage.voltage();

    // Excitation amplitude for the power-flow model: treat the source as a
    // tone of equivalent RMS at its instantaneous dominant frequency.
    const double accel_amp = vib.rms_amplitude() * M_SQRT2;
    const double p_sleep = cfg_.power.storage_power(NodeState::Sleep);

    // A substep recomputes only what its inputs moved. Memo keys compare
    // with ==, which reproduces the recomputed bits: an unset (NaN) key
    // never matches, and +0 and -0 give the same frequency and power.
    constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();

    // Resonant frequency follows the (possibly moving) magnet position; when
    // tuning is disabled the device stays at its configured resonance.
    const double fixed_res = cfg_.initial_resonance_hz > 0.0
                                 ? cfg_.initial_resonance_hz
                                 : cfg_.harvester.generator.natural_freq_hz;
    double res_pos = kUnset, res_hz = fixed_res;  // tuning-map frequency at res_pos
    auto f_res_now = [&](double t) {
        if (!cfg_.tuning_enabled) return fixed_res;
        actuator.update(t);
        if (!(actuator.position() == res_pos)) {
            res_pos = actuator.position();
            res_hz = cfg_.tuning_map.frequency(res_pos);
        }
        return res_hz;
    };

    sim::EventQueue queue;

    // --- firmware task -----------------------------------------------------
    // Self-rescheduling with the firmware's adaptive period. Both recurring
    // callbacks are queued through std::ref, so no event copies a closure.
    std::function<void(double)> task_fn = [&](double t) {
        const TaskDecision d = firmware.decide(storage.voltage(), manager.alive());
        switch (d) {
            case TaskDecision::Run: {
                const double e = firmware.task_energy();
                storage.advance(firmware.task_duration(), 0.0,
                                e / firmware.task_duration());
                m.energy_consumed += e;
                ++m.packets_delivered;
                break;
            }
            case TaskDecision::SkipLow:
            case TaskDecision::SkipOff:
                ++m.packets_missed;
                break;
        }
        if (t + firmware.current_period() < cfg_.duration) {
            queue.schedule(t + firmware.current_period(), std::ref(task_fn));
        }
    };
    queue.schedule(firmware.current_period(), std::ref(task_fn));

    // --- tuning controller check -------------------------------------------
    std::function<void(double)> check_fn = [&](double t) {
        if (cfg_.tuning_enabled && manager.alive()) {
            const double e_check = cfg_.power.freq_check_energy();
            storage.advance(cfg_.power.t_freq_check, 0.0,
                            e_check / std::max(cfg_.power.t_freq_check, 1e-9));
            m.energy_consumed += e_check;
            m.energy_tuning += e_check;
            ++m.freq_checks;
            controller.check(t, vib.dominant_frequency(t), storage.voltage(), actuator);
        }
        if (t + cfg_.controller.check_period < cfg_.duration) {
            queue.schedule(t + cfg_.controller.check_period, std::ref(check_fn));
        }
    };
    if (cfg_.tuning_enabled) queue.schedule(cfg_.controller.check_period, std::ref(check_fn));

    // --- main loop: continuous advance between events -----------------------
    double t = 0.0;
    double next_trace = 0.0;
    double actuator_energy_prev = 0.0;
    harvester::PowerFlowModel::OperatingPoint op;  // at (op_f_exc, op_f_res)
    double op_f_exc = kUnset, op_f_res = kUnset;

    auto record = [&](double now, double p_h) {
        if (trace && now >= next_trace) {
            trace->push_back(TracePoint{now, storage.voltage(), vib.dominant_frequency(now),
                                        f_res_now(now), p_h});
            next_trace += trace_dt;
        }
    };

    while (t < cfg_.duration - 1e-12) {
        const double t_event = std::min(queue.empty() ? cfg_.duration : queue.next_time(),
                                        cfg_.duration);
        // Continuous segment [t, t_event] in bounded sub-steps.
        while (t < t_event - 1e-12) {
            const double h = std::min(cfg_.max_substep, t_event - t);
            const double f_exc = vib.dominant_frequency(t);
            const double f_res = f_res_now(t);
            if (!(f_exc == op_f_exc && f_res == op_f_res)) {
                op = pf.operating_point(f_exc, f_res, accel_amp);
                op_f_exc = f_exc;
                op_f_res = f_res;
            }
            const double p_h = op.power(storage.voltage());

            // Baseline electronics draw: sleep (alive) or nothing (off).
            const double p_base = manager.alive() ? p_sleep : 0.0;
            // Actuator draw while a move is in flight.
            actuator.update(t + h);
            const double e_act = actuator.energy_consumed(t + h) - actuator_energy_prev;
            actuator_energy_prev += e_act;

            storage.advance(h, p_h, p_base + e_act / h);
            m.energy_harvested += p_h * h;
            m.energy_consumed += p_base * h + e_act;
            m.energy_tuning += e_act;

            const double v_new = storage.voltage();
            m.v_min = std::min(m.v_min, v_new);
            if (!manager.alive()) m.downtime += h;
            manager.observe(v_new);

            record(t + h, p_h);
            t += h;
        }
        // Fire every event scheduled at (or before) this instant.
        while (!queue.empty() && queue.next_time() <= t + 1e-12) {
            queue.run_next();
            m.v_min = std::min(m.v_min, storage.voltage());
            manager.observe(storage.voltage());
        }
    }

    m.retunes = controller.retunes();
    m.energy_leaked = storage.energy_leaked();
    m.v_end = storage.voltage();
    return m;
}

NodeMetrics simulate_node(const NodeSimConfig& config) {
    NodeSimulation sim(config);
    return sim.run();
}

}  // namespace ehdoe::node
