#include "node/node_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>

namespace ehdoe::node {

void NodeSimConfig::validate() const {
    if (!vibration) throw std::invalid_argument("NodeSimConfig: vibration source required");
    if (!(duration > 0.0 && duration <= kMaxDurationSeconds))
        throw std::invalid_argument("NodeSimConfig: duration in (0, 1e6] s");
    if (!std::isfinite(initial_resonance_hz))
        throw std::invalid_argument("NodeSimConfig: initial_resonance_hz finite");
    if (!(max_substep > 0.0)) throw std::invalid_argument("NodeSimConfig: max_substep > 0");
    storage.validate();
    power.validate();
    firmware.validate();
    controller.validate();
    manager.validate();
}

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

/// One experiment as a resumable run: the constructor takes it to its first
/// substep, and each step() advances one substep and fires the events due at
/// its end. A run stepped to the end performs exactly the floating-point work
/// of a run in one go, whatever else runs between its steps.
class NodeRun {
public:
    NodeRun(const NodeSimConfig& cfg, double trace_dt, std::vector<TracePoint>* trace)
        : cfg_(cfg),
          vib_(*cfg.vibration),
          pf_(cfg.harvester),
          storage_(cfg.storage),
          actuator_(cfg.actuator, cfg.tuning_map.separation_for(
                                      cfg.initial_resonance_hz > 0.0
                                          ? cfg.initial_resonance_hz
                                          : cfg.harvester.generator.natural_freq_hz)),
          firmware_(cfg.firmware, cfg.power),
          controller_(cfg.controller, &cfg.tuning_map),
          manager_(cfg.manager, storage_.voltage() >= cfg.manager.v_on),
          // Excitation amplitude for the power-flow model: treat the source
          // as a tone of equivalent RMS at its instantaneous dominant
          // frequency.
          accel_amp_(vib_.rms_amplitude() * M_SQRT2),
          p_sleep_(cfg.power.storage_power(NodeState::Sleep)),
          // Resonant frequency follows the (possibly moving) magnet
          // position; when tuning is disabled the device stays at its
          // configured resonance.
          fixed_res_(cfg.initial_resonance_hz > 0.0 ? cfg.initial_resonance_hz
                                                    : cfg.harvester.generator.natural_freq_hz),
          res_hz_(fixed_res_),
          trace_dt_(trace_dt),
          trace_(trace) {
        m_.duration = cfg_.duration;
        m_.v_min = storage_.voltage();
        schedule(task_, firmware_.current_period());
        if (cfg_.tuning_enabled) schedule(check_, cfg_.controller.check_period);
        running_ = next_segment();
    }

    /// False once the horizon is reached.
    bool running() const { return running_; }

    /// One substep, its phases back to back. Requires running().
    void step() {
        prepare();
        harvest();
        while (leaking()) leak();
        settle();
    }

    // A substep's phases, which simulate_nodes() runs for several runs at a
    // time; each run's operations keep their own order.

    /// (a) Everything that does not read the storage voltage, in three
    /// steps: begin(), the operating-point solve when begin() asks for one,
    /// and draw().
    void prepare() {
        if (begin()) solve();
        draw();
    }

    /// (a1) The step length, excitation and resonance. True when those
    /// moved, so the operating point must be solved again; then throws what
    /// PowerFlowModel::operating_point() throws for them.
    bool begin() {
        h_ = std::min(cfg_.max_substep, t_event_ - t_);
        const double f_exc = vib_.dominant_frequency(t_);
        const double f_res = f_res_now(t_);
        if (f_exc == op_at_.f_exc_hz && f_res == op_at_.f_res_hz) return false;
        const harvester::PowerFlowModel::Conditions at{f_exc, f_res, accel_amp_};
        harvester::PowerFlowModel::check(at);
        op_at_ = at;
        return true;
    }

    /// (a2) The operating point begin() asked for, alone or beside another
    /// run's in the lanes of a num::Pair.
    void solve() { op_ = pf_.solve(op_at_); }
    static void solve_pair(NodeRun& a, NodeRun& b) {
        harvester::PowerFlowModel::solve_pair(a.pf_, a.op_at_, a.op_, b.pf_, b.op_at_, b.op_);
    }

    /// (a3) The actuator and the power drawn from storage; throws nothing.
    void draw() {
        // Baseline electronics draw: sleep (alive) or nothing (off).
        p_base_ = manager_.alive() ? p_sleep_ : 0.0;
        // Actuator draw while a move is in flight.
        actuator_.update(t_ + h_);
        e_act_ = actuator_.energy_consumed(t_ + h_) - actuator_energy_prev_;
        actuator_energy_prev_ += e_act_;
        // An idle actuator's energy is +-0, and +-0 / h_ (h_ > 0) is the
        // same zero: the division is skipped with no bit moved.
        p_out_ = p_base_ + (e_act_ == 0.0 ? e_act_ : e_act_ / h_);
    }

    /// (b) The power harvested at the storage voltage, and the storage
    /// update it starts, run as leak() while leaking().
    void harvest() {
        p_h_ = op_.power(storage_.voltage());
        flow_ = harvester::Storage::flow(h_, p_h_, p_out_);
    }
    bool leaking() const { return flow_.remaining > 0.0; }
    /// One 50 ms leakage sub-step of the storage update.
    void leak() { storage_.sub_advance(flow_); }

    /// (c) The substep's metrics and trace point; then, at the end of a
    /// segment, the due events and the next segment.
    void settle() {
        m_.energy_harvested += p_h_ * h_;
        m_.energy_consumed += p_base_ * h_ + e_act_;
        m_.energy_tuning += e_act_;

        const double v_new = storage_.voltage();
        m_.v_min = std::min(m_.v_min, v_new);
        if (!manager_.alive()) m_.downtime += h_;
        manager_.observe(v_new);

        if (trace_ && t_ + h_ >= next_trace_) {
            const double now = t_ + h_;
            trace_->push_back(TracePoint{now, storage_.voltage(), vib_.dominant_frequency(now),
                                         f_res_now(now), p_h_});
            next_trace_ += trace_dt_;
        }
        t_ += h_;
        if (t_ < t_event_ - 1e-12) return;
        fire_due();
        running_ = next_segment();
    }

    NodeMetrics finish() {
        m_.retunes = controller_.retunes();
        m_.energy_leaked = storage_.energy_leaked();
        m_.v_end = storage_.voltage();
        return m_;
    }

private:
    /// A recurring event: its next firing time (kNever when none is due
    /// before the horizon) and the sequence number it was scheduled with.
    struct Slot {
        double when = kNever;
        std::uint64_t seq = 0;
    };

    void schedule(Slot& slot, double when) {
        slot.when = when;
        slot.seq = next_seq_++;
    }

    double next_event() const { return std::min(task_.when, check_.when); }

    /// Find the next continuous segment [t, t_event], firing the events due
    /// before it has a substep to run; false at the horizon.
    bool next_segment() {
        while (t_ < cfg_.duration - 1e-12) {
            t_event_ = std::min(next_event(), cfg_.duration);
            if (t_ < t_event_ - 1e-12) return true;
            fire_due();
        }
        return false;
    }

    /// Fire every event scheduled at (or before) this instant, the earlier
    /// slot first and, at equal times, the one scheduled first.
    void fire_due() {
        while (next_event() <= t_ + 1e-12) {
            const bool task_first = task_.when < check_.when ||
                                    (task_.when == check_.when && task_.seq < check_.seq);
            if (task_first) {
                run_task();
            } else {
                run_check();
            }
            m_.v_min = std::min(m_.v_min, storage_.voltage());
            manager_.observe(storage_.voltage());
        }
    }

    /// The firmware task, rescheduled with the firmware's adaptive period.
    void run_task() {
        const double t = task_.when;
        task_.when = kNever;
        switch (firmware_.decide(storage_.voltage(), manager_.alive())) {
            case TaskDecision::Run: {
                const double e = firmware_.task_energy();
                storage_.advance(firmware_.task_duration(), 0.0, e / firmware_.task_duration());
                m_.energy_consumed += e;
                ++m_.packets_delivered;
                break;
            }
            case TaskDecision::SkipLow:
            case TaskDecision::SkipOff:
                ++m_.packets_missed;
                break;
        }
        if (t + firmware_.current_period() < cfg_.duration) {
            schedule(task_, t + firmware_.current_period());
        }
    }

    /// The tuning controller's check.
    void run_check() {
        const double t = check_.when;
        check_.when = kNever;
        if (cfg_.tuning_enabled && manager_.alive()) {
            const double e_check = cfg_.power.freq_check_energy();
            storage_.advance(cfg_.power.t_freq_check, 0.0,
                             e_check / std::max(cfg_.power.t_freq_check, 1e-9));
            m_.energy_consumed += e_check;
            m_.energy_tuning += e_check;
            ++m_.freq_checks;
            controller_.check(t, vib_.dominant_frequency(t), storage_.voltage(), actuator_);
        }
        if (t + cfg_.controller.check_period < cfg_.duration) {
            schedule(check_, t + cfg_.controller.check_period);
        }
    }

    // A substep recomputes only what its inputs moved. Memo keys compare
    // with ==, which reproduces the recomputed bits: an unset (NaN) key
    // never matches, and +0 and -0 give the same frequency and power.
    double f_res_now(double t) {
        if (!cfg_.tuning_enabled) return fixed_res_;
        actuator_.update(t);
        if (!(actuator_.position() == res_pos_)) {
            res_pos_ = actuator_.position();
            res_hz_ = cfg_.tuning_map.frequency(res_pos_);
        }
        return res_hz_;
    }

    const NodeSimConfig& cfg_;
    const harvester::VibrationSource& vib_;
    harvester::PowerFlowModel pf_;
    harvester::Storage storage_;
    harvester::TuningActuator actuator_;
    Firmware firmware_;
    TuningController controller_;
    EnergyManager manager_;
    const double accel_amp_;
    const double p_sleep_;
    const double fixed_res_;

    NodeMetrics m_;
    Slot task_, check_;
    std::uint64_t next_seq_ = 0;
    bool running_ = false;
    double t_ = 0.0;
    double t_event_ = 0.0;  ///< end of the current continuous segment
    double actuator_energy_prev_ = 0.0;
    double res_pos_ = std::numeric_limits<double>::quiet_NaN();
    double res_hz_;  ///< tuning-map frequency at res_pos_
    harvester::PowerFlowModel::OperatingPoint op_;  ///< at op_at_
    harvester::PowerFlowModel::Conditions op_at_{std::numeric_limits<double>::quiet_NaN(),
                                                 std::numeric_limits<double>::quiet_NaN(), 0.0};

    // The current substep, from one phase to the next.
    double h_ = 0.0;       ///< its length
    double p_base_ = 0.0;  ///< baseline draw (W)
    double e_act_ = 0.0;   ///< actuator energy (J)
    double p_out_ = 0.0;   ///< power drawn from storage (W)
    double p_h_ = 0.0;     ///< harvested power (W)
    harvester::Storage::Flow flow_{};

    const double trace_dt_;
    std::vector<TracePoint>* const trace_;
    double next_trace_ = 0.0;
};

}  // namespace

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
    NodeRun run(cfg_, trace_dt, trace);
    while (run.running()) run.step();
    return run.finish();
}

NodeMetrics simulate_node(const NodeSimConfig& config) {
    NodeSimulation sim(config);
    return sim.run();
}

std::vector<NodeOutcome> simulate_nodes(const std::vector<NodeSimConfig>& configs) {
    std::vector<NodeOutcome> out(configs.size());
    std::array<std::optional<NodeRun>, kNodeLanes> lanes;
    std::array<std::size_t, kNodeLanes> index{};  // the config each lane runs
    std::size_t next = 0;

    // Give lane `l` the next config that has a substep to run, settling the
    // ones that fail or end before it; false once none is left.
    auto refill = [&](std::size_t l) {
        lanes[l].reset();
        while (next < configs.size()) {
            const std::size_t i = next++;
            try {
                configs[i].validate();
                lanes[l].emplace(configs[i], 0.0, nullptr);
                if (lanes[l]->running()) {
                    index[l] = i;
                    return true;
                }
                out[i].metrics = lanes[l]->finish();
            } catch (...) {
                out[i].error = std::current_exception();
            }
            lanes[l].reset();
        }
        return false;
    };

    std::size_t live = 0;
    for (std::size_t l = 0; l < kNodeLanes; ++l) live += refill(l) ? 1 : 0;
    // Each round is one substep of every live run, phase by phase, so the
    // core overlaps the runs' operating-point solves and then their storage
    // chains. A run that throws drops out of the round and its lane refills.
    while (live > 1) {
        std::array<NodeRun*, kNodeLanes> run{};  // this round's runs still going
        auto fail = [&](std::size_t l) {
            out[index[l]].error = std::current_exception();
            run[l] = nullptr;
        };
        // Phase (a). A run whose excitation and resonance held draws its
        // power at once. The others' operating points are solved two at a
        // time in the lanes of a num::Pair, and those runs draw theirs while
        // the packed solves are in flight.
        std::array<NodeRun*, kNodeLanes> pending{};
        std::size_t n_pending = 0;
        for (std::size_t l = 0; l < kNodeLanes; ++l) {
            if (!lanes[l]) continue;
            run[l] = &*lanes[l];
            try {
                if (run[l]->begin()) {
                    pending[n_pending++] = run[l];
                    continue;
                }
            } catch (...) {
                fail(l);
                continue;
            }
            run[l]->draw();
        }
        if (n_pending > 0) {
            for (std::size_t i = 0; i + 1 < n_pending; i += 2) {
                NodeRun::solve_pair(*pending[i], *pending[i + 1]);
            }
            if (n_pending % 2 == 1) pending[n_pending - 1]->solve();
            for (std::size_t i = 0; i < n_pending; ++i) pending[i]->draw();
        }
        std::array<NodeRun*, kNodeLanes> leaking{};
        std::size_t n = 0;
        for (std::size_t l = 0; l < kNodeLanes; ++l) {
            if (!run[l]) continue;
            try {
                run[l]->harvest();
            } catch (...) {
                fail(l);
                continue;
            }
            if (run[l]->leaking()) leaking[n++] = run[l];
        }
        // One leakage sub-step of every storage update at a time.
        while (n > 0) {
            std::size_t still = 0;
            for (std::size_t i = 0; i < n; ++i) {
                leaking[i]->leak();
                if (leaking[i]->leaking()) leaking[still++] = leaking[i];
            }
            n = still;
        }
        for (std::size_t l = 0; l < kNodeLanes; ++l) {
            if (!lanes[l]) continue;
            if (run[l]) {
                try {
                    run[l]->settle();
                    if (run[l]->running()) continue;
                    out[index[l]].metrics = run[l]->finish();
                } catch (...) {
                    out[index[l]].error = std::current_exception();
                }
            }
            if (!refill(l)) --live;
        }
    }
    // Fewer than two live runs: each steps to its end without rounds, and
    // its lane then takes the next config, if one is left.
    for (std::size_t l = 0; l < kNodeLanes; ++l) {
        while (lanes[l]) {
            try {
                while (lanes[l]->running()) lanes[l]->step();
                out[index[l]].metrics = lanes[l]->finish();
            } catch (...) {
                out[index[l]].error = std::current_exception();
            }
            refill(l);
        }
    }
    return out;
}

}  // namespace ehdoe::node
