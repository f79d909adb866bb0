#include "harvester/harvester_system.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "numerics/linalg.hpp"
#include "numerics/pair.hpp"

namespace ehdoe::harvester {

namespace {
constexpr double kTwoPi = 2.0 * M_PI;
}

void HarvesterCircuitParams::validate() const {
    generator.validate();
    multiplier.validate();
    if (!(storage_capacitance >= 0.0))
        throw std::invalid_argument("HarvesterCircuitParams: storage_capacitance >= 0");
    if (!(storage_leakage > 0.0))
        throw std::invalid_argument("HarvesterCircuitParams: storage_leakage > 0");
}

HarvesterCircuit::HarvesterCircuit(HarvesterCircuitParams params)
    : params_(std::move(params)),
      net_(params_.multiplier, params_.storage_capacitance),
      spring_k_(params_.generator.spring_constant()) {
    params_.validate();
    cinv_ = num::LuFactor(net_.capacitance()).inverse();
}

void HarvesterCircuit::set_resonant_frequency(double f_hz) {
    if (!(f_hz > 0.0)) throw std::invalid_argument("HarvesterCircuit: resonant frequency > 0");
    const double w = kTwoPi * f_hz;
    spring_k_ = params_.generator.mass * w * w;
}

num::Vector HarvesterCircuit::initial_state(double v_store0) const {
    num::Vector x(state_dim());
    const std::size_t n = params_.multiplier.stages;
    // Pre-charge the DC column proportionally (equal voltage per store cap).
    for (std::size_t j = 1; j <= n; ++j) {
        x[idx_node(net_.node_d(j))] = v_store0 * static_cast<double>(j) / static_cast<double>(n);
    }
    return x;
}

void HarvesterCircuit::assemble(std::uint32_t seg, num::Matrix& a, num::Matrix& b) const {
    const MicrogeneratorParams& g = params_.generator;
    const std::size_t m_nodes = net_.num_nodes();

    // Mechanical rows.
    a(0, 1) = 1.0;
    a(1, 0) = -spring_k_ / g.mass;
    a(1, 1) = -g.parasitic_damping() / g.mass;
    a(1, 2) = -g.coupling / g.mass;
    b(1, 0) = -1.0;  // - a(t)

    // Coil: L i' = Phi w - R_c i - v0.
    const double l = std::max(g.coil_inductance, 1e-6);  // keep the ODE explicit
    a(2, 1) = g.coupling / l;
    a(2, 2) = -g.coil_resistance / l;
    a(2, idx_node(net_.node_v0())) = -1.0 / l;

    // Node equations: C v' = G(seg) v + s(seg) + e_{v0} i_L - e_{out} i_load.
    num::Matrix gmat(m_nodes, m_nodes);
    num::Vector svec(m_nodes);
    net_.stamp_pwl(seg, gmat, svec);
    // Storage leakage and optional resistive load at the output node.
    double gout = 1.0 / params_.storage_leakage;
    if (params_.load_resistance > 0.0) gout += 1.0 / params_.load_resistance;
    gmat(net_.output_node(), net_.output_node()) -= gout;

    // v' = Cinv (G v + ...): fill the node block of A.
    for (std::size_t r = 0; r < m_nodes; ++r) {
        for (std::size_t c = 0; c < m_nodes; ++c) {
            double acc = 0.0;
            for (std::size_t k = 0; k < m_nodes; ++k) acc += cinv_(r, k) * gmat(k, c);
            a(idx_node(r), idx_node(c)) = acc;
        }
        // Coil current enters node v0.
        a(idx_node(r), 2) = cinv_(r, net_.node_v0());
        // Load current leaves the output node (input 1).
        b(idx_node(r), 1) = -cinv_(r, net_.output_node());
        // Constant injections from on-diode companion sources (input 2 == 1).
        double sc = 0.0;
        for (std::size_t k = 0; k < m_nodes; ++k) sc += cinv_(r, k) * svec[k];
        b(idx_node(r), 2) = sc;
    }
}

sim::PwlSystem HarvesterCircuit::make_pwl_system() const {
    sim::PwlSystem sys;
    sys.state_dim = state_dim();
    sys.input_dim = kInputDim;
    sys.switches.assign(net_.diodes().size(),
                        sim::PwlSwitch{params_.multiplier.diode.v_on});
    // The PwlSystem closures capture `this`; the circuit must outlive the
    // engine, which every call site in the toolkit guarantees by owning both.
    sys.assemble = [this](std::uint32_t seg, num::Matrix& a, num::Matrix& b) {
        assemble(seg, a, b);
    };
    sys.branch_voltage = [this](std::size_t k, const num::Vector& x) {
        // Node voltages live at offset 3 in the state vector.
        const DiodeBranch& d = net_.diodes()[k];
        const double va = d.anode >= 0 ? x[idx_node(static_cast<std::size_t>(d.anode))] : 0.0;
        const double vc = d.cathode >= 0 ? x[idx_node(static_cast<std::size_t>(d.cathode))] : 0.0;
        return va - vc;
    };
    return sys;
}

/// The Shockley right-hand side: the state's derivative written once, over
/// one lane type for both calls (double at one point, num::Pair at two
/// finite-difference columns). Nothing is allocated per call: node
/// voltages are read in place and injections accumulate on the stack.
class HarvesterCircuit::NonlinearRhs {
public:
    NonlinearRhs(const HarvesterCircuit& circuit, std::function<double(double)> accel,
                 std::function<double(double)> load_current)
        : c_(&circuit),
          accel_(std::move(accel)),
          load_current_(std::move(load_current)),
          l_(std::max(circuit.params_.generator.coil_inductance, 1e-6)),
          c_p_(circuit.params_.generator.parasitic_damping()) {}

    void operator()(double t, const num::Vector& y, const double* dy, double* out) {
        sample(t);
        if (dy) {
            columns(y, dy, out);
            return;
        }
        std::array<double, MultiplierParams::kMaxNodes> inject{};
        c_->net_.add_shockley_currents(y.data() + c_->idx_node(0), inject.data(), diodes_);
        derivative(y.data(), inject.data(), out);
    }

private:
    static constexpr std::size_t kMaxState = 3 + MultiplierParams::kMaxNodes;

    /// a(t) and i_load(t), sampled only when t's bits change.
    void sample(double t) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &t, sizeof bits);
        if (sampled_ && bits == t_bits_) return;
        a_t_ = accel_(t);
        if (load_current_) i_load_ = load_current_(t);
        t_bits_ = bits;
        sampled_ = true;
    }

    /// dx = f(x), given each node's diode injections in `inject`.
    template <class T>
    void derivative(const T* x, T* inject, T* dx) const {
        const HarvesterCircuit& c = *c_;
        const MicrogeneratorParams& g = c.params_.generator;
        const MultiplierNetwork& net = c.net_;
        const T z = x[0], w = x[1], il = x[2];
        const T v0 = x[c.idx_node(net.node_v0())];

        dx[0] = w;
        dx[1] = (-c.spring_k_ * z - c_p_ * w - g.coupling * il) / g.mass - a_t_;
        dx[2] = (g.coupling * w - g.coil_resistance * il - v0) / l_;

        // Node injections.
        const std::size_t out = net.output_node();
        inject[net.node_v0()] += il;
        const T vout = x[c.idx_node(out)];
        inject[out] -= vout / c.params_.storage_leakage;
        if (c.params_.load_resistance > 0.0) inject[out] -= vout / c.params_.load_resistance;
        if (load_current_) inject[out] -= i_load_;

        // v' = Cinv * inject, each entry summed from 0.0 over every k,
        // Cinv's zeros included.
        const std::size_t m = net.num_nodes();
        for (std::size_t r = 0; r < m; ++r) {
            const double* cinv = c.cinv_.row_ptr(r);
            T acc{};
            for (std::size_t k = 0; k < m; ++k) acc += cinv[k] * inject[k];
            dx[c.idx_node(r)] = acc;
        }
    }

    /// out[i * n + j] = f_i(y + dy[j] e_j), columns j and j + 1 in the two
    /// lanes. n = 4 + 2N is even.
    void columns(const num::Vector& y, const double* dy, double* out) {
        using num::Pair;
        const MultiplierNetwork& net = c_->net_;
        const std::size_t n = y.size(), m = net.num_nodes();
        const double* v = y.data() + c_->idx_node(0);
        // y's diode injections, which also bring the memo to y.
        std::array<double, MultiplierParams::kMaxNodes> base{};
        net.add_shockley_currents(v, base.data(), diodes_);

        std::array<Pair, kMaxState> x{}, dx{};
        std::array<Pair, MultiplierParams::kMaxNodes> inject{};
        for (std::size_t j = 0; j < n; j += 2) {
            std::array<std::array<double, MultiplierParams::kMaxNodes>, 2> lane{};
            for (std::size_t l = 0; l < 2; ++l) {
                const std::size_t col = j + l;
                if (col < c_->idx_node(0))
                    lane[l] = base;  // a mechanical state moves no diode
                else
                    net.add_moved_shockley_currents(v, col - c_->idx_node(0), y[col] + dy[col],
                                                    diodes_, lane[l].data());
            }
            for (std::size_t i = 0; i < n; ++i) x[i] = Pair{y[i], y[i]};
            x[j][0] = y[j] + dy[j];
            x[j + 1][1] = y[j + 1] + dy[j + 1];
            for (std::size_t k = 0; k < m; ++k) inject[k] = Pair{lane[0][k], lane[1][k]};
            derivative(x.data(), inject.data(), dx.data());
            for (std::size_t i = 0; i < n; ++i) num::store_pair(out + i * n + j, dx[i]);
        }
    }

    const HarvesterCircuit* c_;
    std::function<double(double)> accel_;
    std::function<double(double)> load_current_;
    double l_;    ///< coil inductance, floored to keep the ODE explicit
    double c_p_;  ///< parasitic damping
    MultiplierNetwork::ShockleyMemo diodes_;
    std::uint64_t t_bits_ = 0;
    double a_t_ = 0.0;
    double i_load_ = 0.0;
    bool sampled_ = false;
};

num::OdeRhs HarvesterCircuit::make_nonlinear_rhs(std::function<double(double)> accel,
                                                 std::function<double(double)> load_current) const {
    if (!accel) throw std::invalid_argument("make_nonlinear_rhs: accel required");
    return num::OdeRhs::batched(NonlinearRhs(*this, std::move(accel), std::move(load_current)));
}

std::function<num::Vector(double)> HarvesterCircuit::make_input(
    std::function<double(double)> accel, std::function<double(double)> load_current) const {
    if (!accel) throw std::invalid_argument("make_input: accel required");
    return [accel = std::move(accel), load_current = std::move(load_current)](double t) {
        num::Vector u(kInputDim);
        u[0] = accel(t);
        u[1] = load_current ? load_current(t) : 0.0;
        u[2] = 1.0;
        return u;
    };
}

// ------------------------------------------------------------ PowerFlowModel

PowerFlowModel::PowerFlowModel(const Params& params) {
    params.generator.validate();
    params.multiplier.validate();
    if (!(params.converter_efficiency > 0.0 && params.converter_efficiency <= 1.0)) {
        throw std::invalid_argument("PowerFlowModel: converter_efficiency in (0,1]");
    }
    // `> 0` alone would read a NaN as "choose the optimum", and +inf makes
    // every operating point NaN.
    if (!std::isfinite(params.equivalent_load)) {
        throw std::invalid_argument("PowerFlowModel: equivalent_load finite");
    }
    const double r_eq = params.equivalent_load > 0.0 ? params.equivalent_load
                                                     : optimal_load_resistance(params.generator);
    terms_ = {steady_state_terms(params.generator, r_eq), params.multiplier.diode.v_on,
              params.multiplier.ideal_gain(), params.converter_efficiency};
}

double PowerFlowModel::power(double f_exc_hz, double f_res_hz, double accel_amp,
                             double v_store) const {
    return operating_point(f_exc_hz, f_res_hz, accel_amp).power(v_store);
}

}  // namespace ehdoe::harvester
