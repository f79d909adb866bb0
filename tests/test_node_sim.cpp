// Long-horizon node co-simulation tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "core/scenario.hpp"
#include "doe/composite.hpp"
#include "node/node_sim.hpp"

using namespace ehdoe::node;
using namespace ehdoe::harvester;

namespace {

NodeSimConfig base_config(double duration = 120.0) {
    NodeSimConfig c;
    c.vibration = std::make_shared<SineVibration>(0.6, 72.0);
    c.duration = duration;
    c.initial_resonance_hz = 72.0;  // start tuned
    return c;
}

std::string hex(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

}  // namespace

TEST(NodeSim, GoldenResponsesAreBitwiseStable) {
    // Every response of S1-S3 at a 60 s horizon, at the design centre, a
    // factorial corner and an axial point of the default CCD, pinned as
    // hexfloats: a faster substep loop must not move a single bit.
    namespace core = ehdoe::core;
    struct Golden {
        double e_harv, e_cons;
        std::size_t packets;
        double v_min, downtime, e_tune, e_leaked, v_end;
        std::size_t retunes, freq_checks, packets_missed;
    };
    const Golden golden[3][3] = {
        {
            {0x1.8ea503b0d4fafp-9, 0x1.39c32b900138ap-7, 12, 0x1.49e64d7b146p+1, 0x0p+0,
             0x1.48eae8150b406p-9, 0x1.64506634cd291p-9, 0x1.49e816c166abbp+1, 1, 7, 0},
            {0x1.9479f75cec19bp-9, 0x1.8e5cc0661ebbap-5, 105, 0x1.1972fb5ae2adfp+1, 0x0p+0,
             0x1.472b50ffd3a99p-6, 0x1.516ad1823fb7ap-9, 0x1.1976dc3a3b406p+1, 26, 59, 1},
            {0x1.bacf6370f84a5p-9, 0x1.679c5686f7412p-3, 10, 0x1.10453d29bd6d7p+1, 0x0p+0,
             0x1.5b683916716c1p-3, 0x1.277dfcf584277p-8, 0x1.1045620ae0dddp+1, 3, 599, 1},
        },
        {
            {0x1.f93d6ddaf1d0dp-11, 0x1.c40b188e9cb35p-7, 12, 0x1.47ed61bce756p+1, 0x0p+0,
             0x1.b9054e07bc975p-8, 0x1.625ade1690c0fp-9, 0x1.47ed61bce756p+1, 6, 7, 0},
            {0x1.fbf0c9845e938p-9, 0x1.a60da0569dfeap-5, 94, 0x1.170868966a483p+1, 0x0p+0,
             0x1.a703feab72fefp-6, 0x1.4a491dc501128p-9, 0x1.1711d30fb08adp+1, 50, 59, 4},
            {0x1.bdf045f4c036p-9, 0x1.76b4572ebceddp-3, 10, 0x1.0d7af139a9898p+1, 0x0p+0,
             0x1.6a8039be3718bp-3, 0x1.241eb257e1f9ap-8, 0x1.0d7b02428128p+1, 37, 599, 1},
        },
        {
            {0x1.0b25e5d73d5b9p-8, 0x1.33ab5dab6d1bcp-7, 12, 0x1.4a43404cc252dp+1, 0x0p+0,
             0x1.308bb082bace7p-9, 0x1.64b978104d937p-9, 0x1.4a49f2f19aea6p+1, 1, 7, 0},
            {0x1.18a8359fa34e7p-8, 0x1.85017056b5345p-5, 107, 0x1.1c1f8d5c569e6p+1, 0x0p+0,
             0x1.2ba4e2bc292fep-6, 0x1.55cfaafb1a59bp-9, 0x1.1c22a735eb561p+1, 26, 59, 0},
            {0x1.2c9308e843a22p-8, 0x1.6755108b991b9p-3, 10, 0x1.10c723f66dc8p+1, 0x0p+0,
             0x1.5b20f31b13468p-3, 0x1.27fe2122d1444p-8, 0x1.10c77591ec17ap+1, 3, 599, 1},
        },
    };
    const core::ScenarioId ids[3] = {core::ScenarioId::OfficeHvac, core::ScenarioId::Industrial,
                                     core::ScenarioId::Transport};
    const double alpha = ehdoe::doe::ccd_alpha_value(6, {});
    const ehdoe::num::Vector coded[3] = {
        {0, 0, 0, 0, 0, 0}, {1, -1, 1, -1, -1, -1}, {0, 0, 0, 0, 0, -alpha}};
    for (int s = 0; s < 3; ++s) {
        const core::Scenario sc = core::Scenario::make(ids[s], 60.0);
        for (int p = 0; p < 3; ++p) {
            SCOPED_TRACE(sc.name() + " point " + std::to_string(p));
            const Golden& g = golden[s][p];
            const NodeMetrics m =
                simulate_node(sc.configure(sc.design_space().to_natural(coded[p])));
            const auto r = core::responses_from_metrics(m);
            EXPECT_EQ(hex(r.at(core::kRespHarvested)), hex(g.e_harv));
            EXPECT_EQ(hex(r.at(core::kRespConsumed)), hex(g.e_cons));
            EXPECT_EQ(hex(r.at(core::kRespPackets)), hex(static_cast<double>(g.packets)));
            EXPECT_EQ(hex(r.at(core::kRespVmin)), hex(g.v_min));
            EXPECT_EQ(hex(r.at(core::kRespDowntime)), hex(g.downtime));
            EXPECT_EQ(hex(r.at(core::kRespTuning)), hex(g.e_tune));
            EXPECT_EQ(hex(m.energy_leaked), hex(g.e_leaked));
            EXPECT_EQ(hex(m.v_end), hex(g.v_end));
            EXPECT_EQ(m.retunes, g.retunes);
            EXPECT_EQ(m.freq_checks, g.freq_checks);
            EXPECT_EQ(m.packets_missed, g.packets_missed);
        }
    }
}

TEST(NodeSim, RunsAndProducesSaneMetrics) {
    const NodeMetrics m = simulate_node(base_config());
    EXPECT_DOUBLE_EQ(m.duration, 120.0);
    EXPECT_GT(m.energy_harvested, 0.0);
    EXPECT_GT(m.energy_consumed, 0.0);
    EXPECT_GT(m.packets_delivered, 0u);
    EXPECT_GT(m.v_min, 0.0);
    EXPECT_LE(m.v_min, m.v_end + 1.0);
}

TEST(NodeSim, EnergyBookkeepingConsistent) {
    NodeSimConfig c = base_config();
    c.tuning_enabled = false;   // remove actuator terms for a clean balance
    const NodeMetrics m = simulate_node(c);
    // Storage energy balance: E0 + harvested - consumed - leaked ~= E_end.
    const double c_f = c.storage.capacitance;
    const double e0 = 0.5 * c_f * c.storage.initial_voltage * c.storage.initial_voltage;
    const double e_end = 0.5 * c_f * m.v_end * m.v_end;
    const double balance = e0 + m.energy_harvested - m.energy_consumed - m.energy_leaked;
    EXPECT_NEAR(balance, e_end, 0.02 * std::max(e0, e_end));
}

TEST(NodeSim, TunedOutperformsDetuned) {
    // The motivating comparison (F1): node starting detuned with tuning
    // disabled harvests far less than one tuned to the excitation.
    NodeSimConfig tuned = base_config(200.0);
    tuned.tuning_enabled = false;
    tuned.initial_resonance_hz = 72.0;

    NodeSimConfig detuned = tuned;
    detuned.initial_resonance_hz = 80.0;

    const double e_tuned = simulate_node(tuned).energy_harvested;
    const double e_detuned = simulate_node(detuned).energy_harvested;
    EXPECT_GT(e_tuned, 5.0 * e_detuned);
}

TEST(NodeSim, ControllerRecoversDetunedStart) {
    // With tuning enabled, a detuned start approaches tuned-start harvest.
    NodeSimConfig cfg = base_config(300.0);
    cfg.initial_resonance_hz = 80.0;
    cfg.controller.check_period = 5.0;
    cfg.controller.deadband_hz = 0.5;
    const NodeMetrics m = simulate_node(cfg);
    EXPECT_GE(m.retunes, 1u);

    NodeSimConfig fixed = cfg;
    fixed.tuning_enabled = false;
    const NodeMetrics mf = simulate_node(fixed);
    EXPECT_GT(m.energy_harvested, 3.0 * mf.energy_harvested);
    EXPECT_GT(m.energy_tuning, 0.0);
}

TEST(NodeSim, HighDutySmallStorageBrownsOut) {
    NodeSimConfig cfg = base_config(300.0);
    cfg.storage.capacitance = 0.05;
    cfg.storage.initial_voltage = 2.6;
    cfg.firmware.task_period = 0.2;  // brutal duty cycle
    cfg.firmware.low_voltage_threshold = 0.0;  // no self-protection
    cfg.firmware.recover_voltage = 0.0;
    const NodeMetrics m = simulate_node(cfg);
    EXPECT_GT(m.downtime, 0.0);
    EXPECT_GT(m.packets_missed, 0u);
    EXPECT_LT(m.v_min, cfg.manager.v_off + 0.01);
}

TEST(NodeSim, BackoffProtectsAgainstBrownout) {
    NodeSimConfig cfg = base_config(300.0);
    cfg.storage.capacitance = 0.05;
    cfg.firmware.task_period = 0.5;
    cfg.firmware.low_voltage_threshold = 2.3;
    cfg.firmware.recover_voltage = 2.45;
    cfg.firmware.backoff_factor = 10.0;
    const NodeMetrics m = simulate_node(cfg);
    EXPECT_DOUBLE_EQ(m.downtime, 0.0);  // backoff keeps the node alive
    EXPECT_GT(m.packets_missed, 0u);    // at the cost of skipped packets
}

TEST(NodeSim, MorePacketsWithShorterPeriod) {
    NodeSimConfig slow = base_config(200.0);
    slow.firmware.task_period = 20.0;
    NodeSimConfig fast = base_config(200.0);
    fast.firmware.task_period = 5.0;
    EXPECT_GT(simulate_node(fast).packets_delivered, simulate_node(slow).packets_delivered);
}

TEST(NodeSim, TracedRunSamplesTrajectory) {
    NodeSimulation sim(base_config(60.0));
    std::vector<TracePoint> trace;
    const NodeMetrics m = sim.run_traced(1.0, trace);
    EXPECT_GE(trace.size(), 55u);
    EXPECT_LE(trace.size(), 65u);
    for (std::size_t i = 1; i < trace.size(); ++i) {
        EXPECT_GT(trace[i].t, trace[i - 1].t);
        EXPECT_GT(trace[i].v_store, 0.0);
        EXPECT_NEAR(trace[i].f_exc, 72.0, 1e-9);
    }
    EXPECT_GT(m.packets_delivered, 0u);
}

TEST(NodeSim, DeterministicAcrossRuns) {
    const NodeMetrics a = simulate_node(base_config());
    const NodeMetrics b = simulate_node(base_config());
    EXPECT_DOUBLE_EQ(a.energy_harvested, b.energy_harvested);
    EXPECT_EQ(a.packets_delivered, b.packets_delivered);
    EXPECT_DOUBLE_EQ(a.v_end, b.v_end);
}

TEST(NodeSim, MetricsHelpers) {
    NodeMetrics m;
    m.duration = 100.0;
    m.energy_harvested = 0.01;
    m.packets_delivered = 50;
    m.packets_missed = 50;
    EXPECT_DOUBLE_EQ(m.mean_harvest_power(), 1e-4);
    EXPECT_DOUBLE_EQ(m.packet_rate(), 1800.0);
    EXPECT_DOUBLE_EQ(m.delivery_ratio(), 0.5);
}

TEST(NodeSim, Validation) {
    NodeSimConfig c = base_config();
    c.vibration = nullptr;
    EXPECT_THROW(NodeSimulation{c}, std::invalid_argument);
    c = base_config();
    c.duration = 0.0;
    EXPECT_THROW(NodeSimulation{c}, std::invalid_argument);
    NodeSimulation ok(base_config(30.0));
    std::vector<TracePoint> tr;
    EXPECT_THROW(ok.run_traced(0.0, tr), std::invalid_argument);
}

// Property: harvested energy grows with excitation amplitude.
class AmplitudeP : public ::testing::TestWithParam<double> {};

TEST_P(AmplitudeP, HarvestGrowsWithAmplitude) {
    NodeSimConfig lo = base_config(100.0);
    lo.vibration = std::make_shared<SineVibration>(GetParam(), 72.0);
    NodeSimConfig hi = base_config(100.0);
    hi.vibration = std::make_shared<SineVibration>(GetParam() * 1.5, 72.0);
    EXPECT_GT(simulate_node(hi).energy_harvested, simulate_node(lo).energy_harvested);
}

INSTANTIATE_TEST_SUITE_P(Amps, AmplitudeP, ::testing::Values(0.4, 0.6, 0.8));
