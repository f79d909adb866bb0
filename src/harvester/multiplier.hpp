// ehdoe/harvester/multiplier.hpp
//
// N-stage half-wave Cockcroft-Walton (Villard cascade) voltage multiplier —
// the AC->DC interface between the microgenerator coil and the storage
// supercapacitor, as in [2]. The harvester EMF peaks well below the node's
// operating voltage, so the multiplier both rectifies and boosts (~2N x).
//
// Topology (N stages):
//   * "push" capacitors  Cp_j : v0 - a_1,  a_1 - a_2, ..., a_{N-1} - a_N
//   * "store" capacitors Cs_j : gnd - d_1, d_1 - d_2, ..., d_{N-1} - d_N
//   * diodes alternate columns: D_{2j-1}: d_{j-1} -> a_j (d_0 = gnd),
//                               D_{2j}  : a_j -> d_j
//   * DC output is taken across the whole store column at d_N.
//
// Each AC-column node also carries a small parasitic capacitance to ground
// (physically: coil + wiring capacitance). This keeps the nodal capacitance
// matrix non-singular, so the network is a pure ODE rather than a DAE.
//
// Two diode models, one per engine:
//   * Shockley exponential (with high-voltage linearization) — for the
//     classical Newton-Raphson transient baseline, whose right-hand side
//     re-evaluates only the diodes whose branch voltage moved since its
//     previous call (a circuit simulator's device bypass, exact because a
//     diode's current depends on nothing else);
//   * piecewise-linear threshold+slope companion — for the explicit
//     linearized state-space engine of [4].
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "numerics/matrix.hpp"

namespace ehdoe::harvester {

/// Diode small-signal/companion parameters.
struct DiodeParams {
    // Shockley model (baseline engine). MultiplierParams::validate()
    // requires I_s, n and V_T positive and n, V_T and the knee finite.
    double saturation_current = 1e-8;  ///< I_s (A), Schottky-class
    double ideality = 1.05;            ///< n
    double thermal_voltage = 0.02585;  ///< V_T at 300 K
    double linearize_above = 0.55;     ///< exp() linearized beyond this (V)
    // PWL model (fast engine).
    double v_on = 0.25;                ///< threshold (V)
    double r_on = 15.0;                ///< on-slope resistance (ohm)
    double g_off = 1e-9;               ///< reverse/off conductance (S)

    /// Shockley current at branch voltage v (A), linearized above
    /// `linearize_above` for numerical safety.
    double shockley_current(double v) const;
};

/// Multiplier electrical parameters.
struct MultiplierParams {
    /// validate() accepts 1..kMaxStages stages, so a network has at most
    /// kMaxNodes nodes.
    static constexpr std::size_t kMaxStages = 15;
    static constexpr std::size_t kMaxNodes = 1 + 2 * kMaxStages;

    std::size_t stages = 5;            ///< N
    double stage_capacitance = 22e-6;  ///< Cp_j = Cs_j (F)
    double parasitic_capacitance = 10e-9;  ///< AC-node-to-ground (F)
    DiodeParams diode;

    void validate() const;
    std::size_t num_diodes() const { return 2 * stages; }
    /// Nodes: v0, a_1..a_N, d_1..d_N.
    std::size_t num_nodes() const { return 1 + 2 * stages; }
    /// Ideal no-load DC gain: output ~= 2N * (V_pk - V_on-ish).
    double ideal_gain() const { return 2.0 * static_cast<double>(stages); }
};

/// One diode branch between two node indices (-1 = ground), anode -> cathode.
struct DiodeBranch {
    int anode;
    int cathode;
};

/// Assembled passive network of the multiplier front-end:
///  C * dv/dt = injections(v) — the caller adds coil / load / storage terms.
/// Node indexing: 0 = v0 (coil side), 1..N = a_j, N+1..2N = d_j.
class MultiplierNetwork {
public:
    /// `storage_capacitance` is added from node d_N to ground; pass the
    /// supercap value so the network owns the complete capacitance matrix.
    MultiplierNetwork(MultiplierParams params, double storage_capacitance);

    const MultiplierParams& params() const { return params_; }
    std::size_t num_nodes() const { return params_.num_nodes(); }
    const std::vector<DiodeBranch>& diodes() const { return diodes_; }

    /// Index helpers.
    std::size_t node_v0() const { return 0; }
    std::size_t node_a(std::size_t j) const { return j; }            // 1-based j
    std::size_t node_d(std::size_t j) const { return params_.stages + j; }  // 1-based j
    std::size_t output_node() const { return node_d(params_.stages); }

    /// The (constant, SPD) nodal capacitance matrix.
    const num::Matrix& capacitance() const { return cmat_; }

    /// Each diode's last branch voltage, as bits, and its Shockley current:
    /// what add_shockley_currents needs to skip a diode whose voltage did
    /// not move (a circuit simulator's device bypass). Fixed arrays, so a
    /// memo allocates nothing; a default-constructed one is empty. A memo
    /// belongs to one network.
    struct ShockleyMemo {
        std::array<std::uint64_t, 2 * MultiplierParams::kMaxStages> v_bits{};
        std::array<double, 2 * MultiplierParams::kMaxStages> current{};
        bool filled = false;
    };

    /// Sum Shockley diode currents into `inject` on raw node arrays of
    /// num_nodes() entries: node voltages `v` in, currents added to `inject`
    /// in diode order. shockley_current runs only for a diode whose
    /// branch-voltage bits differ from its `memo` entry, which it then
    /// replaces. It returns the same double for the same bits, so the
    /// injections are bitwise those of a fresh memo. No allocation, no
    /// bounds checks.
    void add_shockley_currents(const double* v, double* inject, ShockleyMemo& memo) const;
    /// add_shockley_currents at `v` with node `node` moved to `v_node`, as
    /// a fresh memo gives it, bit for bit: only the diodes at `node` are
    /// evaluated, and every other diode's current is read from `memo`, which
    /// must hold v's (add_shockley_currents at v last) and stays as it is.
    void add_moved_shockley_currents(const double* v, std::size_t node, double v_node,
                                     const ShockleyMemo& memo, double* inject) const;

    /// Stamp PWL companion conductances for on/off pattern `seg` into G
    /// (num_nodes square) and the constant-injection vector s.
    /// Bit k of `seg` set means diode k conducts.
    void stamp_pwl(std::uint32_t seg, num::Matrix& g, num::Vector& s) const;

private:
    /// Add each diode's current, current(k, branch), to its two nodes in
    /// diode order: the one accumulation add_shockley_currents and
    /// add_moved_shockley_currents share.
    template <class Current>
    void add_currents(double* inject, Current current) const;

    MultiplierParams params_;
    std::vector<DiodeBranch> diodes_;
    num::Matrix cmat_;
};

}  // namespace ehdoe::harvester
