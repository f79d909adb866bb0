// ehdoe/harvester/harvester_system.hpp
//
// The complete tunable electromagnetic harvester assembled for simulation:
//
//   mechanics (m, c_p, k_tuned)  --Phi-->  coil (R_c, L_c)
//        --> N-stage voltage multiplier --> storage capacitor (+ load)
//
// State vector (order 3 + 1 + 2N):
//   [ z, z', i_L,  v0, a_1..a_N, d_1..d_N ]
//
// Two faces, one device:
//  * HarvesterCircuit  — exact circuit-level model; produces the PwlSystem
//    consumed by the explicit state-space engine ([4]) and the nonlinear
//    ODE right-hand side consumed by the Newton-Raphson transient baseline.
//    Used by the T1/F1 benches and for calibrating the fast model.
//  * PowerFlowModel    — steady-state harvested-power estimate
//    P(f_exc, f_res, a, V_store) used by the long-horizon node co-simulation
//    (the "fast model" philosophy of [2]); smooth in all arguments, which is
//    what makes the response surfaces well-behaved.
#pragma once

#include <cmath>
#include <functional>
#include <stdexcept>

#include "harvester/microgenerator.hpp"
#include "harvester/multiplier.hpp"
#include "numerics/ode.hpp"
#include "sim/state_space.hpp"

namespace ehdoe::harvester {

struct HarvesterCircuitParams {
    MicrogeneratorParams generator;
    MultiplierParams multiplier;
    double storage_capacitance = 100e-6;  ///< across the DC output (F)
    double storage_leakage = 150e3;       ///< parallel leakage (ohm)
    /// DC load resistance at the output node; <= 0 means open circuit
    /// (the node co-simulation injects load *current* instead).
    double load_resistance = 0.0;

    void validate() const;
};

/// Circuit-level model of the complete harvester.
class HarvesterCircuit {
public:
    explicit HarvesterCircuit(HarvesterCircuitParams params);

    const HarvesterCircuitParams& params() const { return params_; }
    const MultiplierNetwork& network() const { return net_; }

    std::size_t state_dim() const { return 3 + net_.num_nodes(); }
    /// Inputs of the LTI form: [ base acceleration, load current, constant 1 ].
    static constexpr std::size_t kInputDim = 3;

    /// Tuned spring constant currently in effect (set by the tuning layer).
    double spring_constant() const { return spring_k_; }
    /// Set the spring for resonance at `f_hz`; callers driving a
    /// PwlStateSpaceEngine must invalidate its cache afterwards (structural
    /// change).
    void set_resonant_frequency(double f_hz);

    // ---- state layout helpers -------------------------------------------
    std::size_t idx_displacement() const { return 0; }
    std::size_t idx_velocity() const { return 1; }
    std::size_t idx_coil_current() const { return 2; }
    std::size_t idx_node(std::size_t node) const { return 3 + node; }
    std::size_t idx_output() const { return idx_node(net_.output_node()); }

    double output_voltage(const num::Vector& x) const { return x[idx_output()]; }
    double displacement(const num::Vector& x) const { return x[idx_displacement()]; }
    double coil_current(const num::Vector& x) const { return x[idx_coil_current()]; }
    double emf(const num::Vector& x) const {
        return params_.generator.coupling * x[idx_velocity()];
    }
    /// Initial state with the storage pre-charged to `v_store0` (DC column
    /// voltages set proportionally, everything else at rest).
    num::Vector initial_state(double v_store0 = 0.0) const;

    // ---- engine interfaces ----------------------------------------------
    /// PwlSystem for the explicit linearized state-space engine.
    sim::PwlSystem make_pwl_system() const;

    /// Nonlinear ODE right-hand side (Shockley diodes) for the transient
    /// baseline. `accel` supplies a(t); `load_current` may be empty (then
    /// only the resistive load in params applies).
    ///
    /// The closure bypasses work a call repeats: a point call re-evaluates
    /// a diode only when its branch-voltage bits differ from the previous
    /// call's, and both calls sample `accel` and `load_current` only when
    /// t's bits differ from the previous call's. The column call answers
    /// all n finite-difference columns at once: it takes y's diode currents
    /// from the memo, evaluates only the diodes a node column moves, and
    /// sums Cinv·inject for two columns at a time in num::Pair lanes. Each
    /// result, point or column, is bitwise the one a fresh closure's point
    /// call returns for the same (t, x), a NaN's sign and payload aside
    /// (packed and scalar code may order a sum of two NaNs differently),
    /// under this contract:
    ///  * `accel` and `load_current` must be functions of t;
    ///  * the returned closure must not be called from two threads at once;
    ///  * a copy carries its own memo, so copies may run on separate threads.
    num::OdeRhs make_nonlinear_rhs(std::function<double(double)> accel,
                                   std::function<double(double)> load_current = {}) const;

    /// Input sampler u(t) = [a(t), i_load(t), 1] for the PWL engine.
    std::function<num::Vector(double)> make_input(
        std::function<double(double)> accel,
        std::function<double(double)> load_current = {}) const;

private:
    class NonlinearRhs;  // make_nonlinear_rhs's callable

    void assemble(std::uint32_t seg, num::Matrix& a, num::Matrix& b) const;

    HarvesterCircuitParams params_;
    MultiplierNetwork net_;
    double spring_k_;
    num::Matrix cinv_;  ///< inverse nodal capacitance matrix (precomputed)
};

/// Fast steady-state power model for the node co-simulation.
///
/// Chain: linear-harvester steady state into an equivalent resistive load
/// (default: the device's optimal load), then a rectifier/multiplier stage
/// modelled as a Thevenin DC source V_oc = 2N (V_pk - V_on) behind R_out,
/// with R_out calibrated so the matched-load power equals
/// converter_efficiency * P_load(linear model).
class PowerFlowModel {
public:
    struct Params {
        MicrogeneratorParams generator;
        MultiplierParams multiplier;
        /// eta0. Default calibrated against the circuit-level simulation at
        /// the tuned 72 Hz / 2.4 V operating point (see DESIGN.md §3 and
        /// the PowerFlow.AgreesWithCircuitWithinFactor test).
        double converter_efficiency = 0.6;
        /// Equivalent resistive load reflected at the coil; <= 0 chooses the
        /// analytic optimum for the device. Must be finite.
        double equivalent_load = -1.0;
    };

    /// The Thevenin output at one excitation and tuning state: everything
    /// power() needs except the storage voltage.
    struct OperatingPoint {
        double v_oc = 0.0;       ///< open-circuit boosted DC voltage (V)
        double p_matched = 0.0;  ///< power into a matched load, v = V_oc/2 (W)
        double r_out = 0.0;      ///< output resistance V_oc^2 / (4 P_matched) (ohm)

        /// Average power delivered into storage held at `v_store`; 0 when
        /// the open-circuit voltage cannot reach it. Inline: the node
        /// co-simulation asks for it every substep.
        double power(double v_store) const {
            if (!(v_store >= 0.0))
                throw std::invalid_argument("PowerFlowModel::power: v_store >= 0");
            if (v_oc <= 0.0 || v_store >= v_oc || p_matched <= 0.0) return 0.0;
            return v_store * (v_oc - v_store) / r_out;
        }
    };

    /// Where the device operates: operating_point()'s arguments.
    struct Conditions {
        double f_exc_hz;   ///< excitation frequency (Hz)
        double f_res_hz;   ///< resonance the device is tuned to (Hz)
        double accel_amp;  ///< tone amplitude (m/s^2)
    };

    explicit PowerFlowModel(const Params& params);

    /// Operating point for a tone of amplitude `accel_amp` (m/s^2) at
    /// `f_exc_hz` driving the device tuned to resonate at `f_res_hz`: one
    /// steady-state solve of the linear harvester. Throws
    /// std::invalid_argument unless both frequencies are positive and finite
    /// and the amplitude is non-negative and finite.
    OperatingPoint operating_point(double f_exc_hz, double f_res_hz, double accel_amp) const {
        const Conditions c{f_exc_hz, f_res_hz, accel_amp};
        check(c);
        return solve(c);
    }

    /// Throws what operating_point() throws for `c`; nothing when it accepts it.
    static void check(const Conditions& c);

    /// operating_point() for conditions check() accepts, without the checks.
    OperatingPoint solve(const Conditions& c) const {
        OperatingPoint op;
        solve_lanes(terms_, c.f_exc_hz, c.f_res_hz, c.accel_amp, op.v_oc, op.p_matched, op.r_out);
        return op;
    }

    /// solve() for two models at once: `a` at `ca` into `op_a` in the low
    /// lane of a num::Pair, and `b` at `cb` into `op_b` in the high lane.
    /// Each result is bitwise its own model's solve().
    static void solve_pair(const PowerFlowModel& a, const Conditions& ca, OperatingPoint& op_a,
                           const PowerFlowModel& b, const Conditions& cb, OperatingPoint& op_b);

    /// operating_point(f_exc_hz, f_res_hz, accel_amp).power(v_store).
    double power(double f_exc_hz, double f_res_hz, double accel_amp, double v_store) const;

private:
    /// The solve's terms that depend only on the model, one model per lane
    /// of T.
    template <class T>
    struct Terms {
        SteadyStateTerms<T> device;  ///< at R_L = the equivalent load
        T v_on;                      ///< diode threshold (V)
        T gain;                      ///< the multiplier's ideal gain 2N
        T efficiency;                ///< eta0
    };

    /// The operating point over the lane type T (see solve_steady_state).
    template <class T>
    static void solve_lanes(const Terms<T>& m, T f_exc_hz, T f_res_hz, T accel_amp, T& v_oc,
                            T& p_matched, T& r_out);

    Terms<double> terms_;
};

// In the header, like the steady-state solve they call: the node
// co-simulation asks for an operating point whenever the excitation or the
// resonance moved, which S2's drifting line does every substep.
inline void PowerFlowModel::check(const Conditions& c) {
    if (!(c.accel_amp >= 0.0 && std::isfinite(c.accel_amp)))
        throw std::invalid_argument("PowerFlowModel: accel_amp >= 0 and finite");
    if (!(c.f_exc_hz > 0.0 && std::isfinite(c.f_exc_hz)))
        throw std::invalid_argument("PowerFlowModel: f_exc_hz > 0 and finite");
    // A NaN or 0 Hz resonance makes k_tuned NaN or 0, which the solve
    // reads as the untuned spring; -f would give f's point.
    if (!(c.f_res_hz > 0.0 && std::isfinite(c.f_res_hz)))
        throw std::invalid_argument("PowerFlowModel: f_res_hz > 0 and finite");
}

template <class T>
inline void PowerFlowModel::solve_lanes(const Terms<T>& m, T f_exc_hz, T f_res_hz, T accel_amp,
                                        T& v_oc, T& p_matched, T& r_out) {
    const T w = 2.0 * M_PI * f_res_hz;
    const T k_tuned = m.device.mass * w * w;
    const BasicSteadyState<T> ss = solve_steady_state(m.device, accel_amp, f_exc_hz, k_tuned);

    // Peak AC voltage presented to the multiplier input.
    const T v_pk = ss.current_amplitude * m.device.load_resistance;
    const T per_stage = v_pk - m.v_on;
    const T v = m.gain * per_stage;
    // Thevenin output model: matched power (at v = V_oc/2) equals
    // eta0 * P_load of the linear model.
    const T p = m.efficiency * ss.power_load;
    const T r = v * v / (4.0 * p);
    // A peak within one diode drop charges nothing: every field +0.
    const auto dead = per_stage <= T{};
    v_oc = num::select(dead, T{}, v);
    p_matched = num::select(dead, T{}, p);
    r_out = num::select(dead, T{}, r);
}

inline void PowerFlowModel::solve_pair(const PowerFlowModel& a, const Conditions& ca,
                                       OperatingPoint& op_a, const PowerFlowModel& b,
                                       const Conditions& cb, OperatingPoint& op_b) {
    using num::Pair;
    const Terms<Pair> m{pair_terms(a.terms_.device, b.terms_.device),
                        Pair{a.terms_.v_on, b.terms_.v_on}, Pair{a.terms_.gain, b.terms_.gain},
                        Pair{a.terms_.efficiency, b.terms_.efficiency}};
    Pair v_oc, p_matched, r_out;
    solve_lanes(m, Pair{ca.f_exc_hz, cb.f_exc_hz}, Pair{ca.f_res_hz, cb.f_res_hz},
                Pair{ca.accel_amp, cb.accel_amp}, v_oc, p_matched, r_out);
    op_a = {v_oc[0], p_matched[0], r_out[0]};
    op_b = {v_oc[1], p_matched[1], r_out[1]};
}

}  // namespace ehdoe::harvester
