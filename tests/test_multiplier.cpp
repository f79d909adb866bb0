// Voltage multiplier network tests.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "harvester/multiplier.hpp"
#include "numerics/linalg.hpp"

using namespace ehdoe::harvester;
using ehdoe::num::Matrix;
using ehdoe::num::Vector;

namespace {

// Voltage across diode k, anode minus cathode (ground reads 0 V).
double branch_voltage(const MultiplierNetwork& net, std::size_t k, const Vector& v) {
    const DiodeBranch& d = net.diodes()[k];
    const double va = d.anode >= 0 ? v[static_cast<std::size_t>(d.anode)] : 0.0;
    const double vc = d.cathode >= 0 ? v[static_cast<std::size_t>(d.cathode)] : 0.0;
    return va - vc;
}

}  // namespace

TEST(Diode, ShockleyBasicShape) {
    DiodeParams d;
    EXPECT_NEAR(d.shockley_current(0.0), 0.0, 1e-18);
    EXPECT_LT(d.shockley_current(-1.0), 0.0);                      // ~ -Is
    EXPECT_NEAR(d.shockley_current(-5.0), -d.saturation_current, 1e-10);
    EXPECT_GT(d.shockley_current(0.4), 1e-4);                      // forward
}

TEST(Diode, ShockleyLinearizationIsContinuous) {
    DiodeParams d;
    const double v = d.linearize_above;
    const double eps = 1e-9;
    const double below = d.shockley_current(v - eps);
    const double above = d.shockley_current(v + eps);
    EXPECT_NEAR(below, above, std::fabs(below) * 1e-6);
    // And keeps growing linearly, not exponentially.
    const double g = (d.shockley_current(v + 0.1) - d.shockley_current(v)) / 0.1;
    const double g2 = (d.shockley_current(v + 0.2) - d.shockley_current(v + 0.1)) / 0.1;
    EXPECT_NEAR(g, g2, 1e-9 * g);
}

TEST(Network, TopologyCounts) {
    MultiplierParams p;
    p.stages = 4;
    MultiplierNetwork net(p, 0.1);
    EXPECT_EQ(net.num_nodes(), 9u);
    EXPECT_EQ(net.diodes().size(), 8u);
    EXPECT_EQ(net.output_node(), net.node_d(4));
}

TEST(Network, CapacitanceMatrixIsSpd) {
    MultiplierNetwork net(MultiplierParams{}, 100e-6);
    EXPECT_NO_THROW(ehdoe::num::CholeskyFactor{net.capacitance()});
}

TEST(Network, CapacitanceMatrixSymmetric) {
    MultiplierNetwork net(MultiplierParams{}, 0.0);
    const Matrix& c = net.capacitance();
    for (std::size_t i = 0; i < c.rows(); ++i)
        for (std::size_t j = 0; j < c.cols(); ++j) EXPECT_DOUBLE_EQ(c(i, j), c(j, i));
}

TEST(Network, StorageCapAddedAtOutput) {
    MultiplierParams p;
    MultiplierNetwork without(p, 0.0);
    MultiplierNetwork with(p, 0.2);
    const auto out = with.output_node();
    EXPECT_NEAR(with.capacitance()(out, out) - without.capacitance()(out, out), 0.2, 1e-12);
}

TEST(Network, ShockleyCurrentsConserveCharge) {
    // Sum of injections over all nodes + ground equals zero; with ground
    // implicit, the sum over nodes equals minus the ground injection. Verify
    // the anode/cathode pairing: total injected into floating pairs is 0.
    MultiplierParams p;
    p.stages = 2;
    MultiplierNetwork net(p, 0.0);
    Vector v(net.num_nodes());
    v[net.node_a(1)] = -0.5;
    v[net.node_a(2)] = 0.7;
    v[net.node_d(1)] = 0.1;
    v[net.node_d(2)] = 0.9;
    Vector inject(net.num_nodes());
    MultiplierNetwork::ShockleyMemo memo;
    net.add_shockley_currents(v.data(), inject.data(), memo);
    // Ground current = current through diodes attached to ground (D0 anode).
    const double i_gnd = p.diode.shockley_current(branch_voltage(net, 0, v));
    double total = 0.0;
    for (std::size_t i = 0; i < inject.size(); ++i) total += inject[i];
    EXPECT_NEAR(total, i_gnd, 1e-15);
}

TEST(Network, PwlStampMatchesPwlCurrent) {
    // G v + s must reproduce the branch current law for each segment.
    MultiplierParams p;
    p.stages = 1;
    MultiplierNetwork net(p, 0.0);
    Vector v(3);
    v[1] = -0.8;
    v[2] = 0.4;
    for (std::uint32_t seg : {0u, 1u, 2u, 3u}) {
        Matrix g(3, 3);
        Vector s(3);
        net.stamp_pwl(seg, g, s);
        Vector inj = g * v + s;
        // Manually compute expected injections.
        Vector expect(3);
        for (std::size_t k = 0; k < 2; ++k) {
            const double vb = branch_voltage(net, k, v);
            const bool on = (seg >> k) & 1u;
            const double i = on ? (vb - p.diode.v_on) / p.diode.r_on + p.diode.g_off * p.diode.v_on
                                : p.diode.g_off * vb;
            const auto& br = net.diodes()[k];
            if (br.anode >= 0) expect[static_cast<std::size_t>(br.anode)] -= i;
            if (br.cathode >= 0) expect[static_cast<std::size_t>(br.cathode)] += i;
        }
        for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(inj[i], expect[i], 1e-12) << "seg=" << seg;
    }
}

TEST(Network, Validation) {
    MultiplierParams p;
    p.stages = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = MultiplierParams{};
    p.stage_capacitance = 0.0;
    EXPECT_THROW(MultiplierNetwork(p, 0.0), std::invalid_argument);
    EXPECT_THROW(MultiplierNetwork(MultiplierParams{}, -1.0), std::invalid_argument);
    // Diode parameters that break shockley_current at ordinary voltages:
    // n * V_T of zero (NaN at 0 V) or below (reverse bias blows up), and a
    // knee that is not finite.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {0.0, -1.05, nan, inf}) {
        p = MultiplierParams{};
        p.diode.ideality = bad;
        EXPECT_THROW(p.validate(), std::invalid_argument) << "ideality " << bad;
        p = MultiplierParams{};
        p.diode.thermal_voltage = bad;
        EXPECT_THROW(MultiplierNetwork(p, 0.0), std::invalid_argument) << "V_T " << bad;
    }
    for (double bad : {nan, inf, -inf}) {
        p = MultiplierParams{};
        p.diode.linearize_above = bad;
        EXPECT_THROW(p.validate(), std::invalid_argument) << "linearize_above " << bad;
    }
    p = MultiplierParams{};
    p.diode.linearize_above = -0.2;  // a knee below 0 V is a model choice, not an error
    EXPECT_NO_THROW(p.validate());
}

// Property: the capacitance matrix stays SPD across stage counts.
class StagesP : public ::testing::TestWithParam<int> {};

TEST_P(StagesP, SpdAcrossStageCounts) {
    MultiplierParams p;
    p.stages = static_cast<std::size_t>(GetParam());
    MultiplierNetwork net(p, 0.15);
    EXPECT_NO_THROW(ehdoe::num::CholeskyFactor{net.capacitance()});
    EXPECT_EQ(net.diodes().size(), 2u * p.stages);
}

INSTANTIATE_TEST_SUITE_P(N, StagesP, ::testing::Values(1, 2, 3, 5, 8, 12));
