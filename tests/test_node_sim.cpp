// Long-horizon node co-simulation tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "doe/composite.hpp"
#include "doe/lhs.hpp"
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

/// Every NodeMetrics field against its golden, doubles as hexfloats.
void expect_metrics(const NodeMetrics& m, const NodeMetrics& g) {
    EXPECT_EQ(hex(m.duration), hex(g.duration));
    EXPECT_EQ(hex(m.energy_harvested), hex(g.energy_harvested));
    EXPECT_EQ(hex(m.energy_consumed), hex(g.energy_consumed));
    EXPECT_EQ(hex(m.energy_tuning), hex(g.energy_tuning));
    EXPECT_EQ(hex(m.energy_leaked), hex(g.energy_leaked));
    EXPECT_EQ(m.packets_delivered, g.packets_delivered);
    EXPECT_EQ(m.packets_missed, g.packets_missed);
    EXPECT_EQ(m.retunes, g.retunes);
    EXPECT_EQ(m.freq_checks, g.freq_checks);
    EXPECT_EQ(hex(m.v_min), hex(g.v_min));
    EXPECT_EQ(hex(m.v_end), hex(g.v_end));
    EXPECT_EQ(hex(m.downtime), hex(g.downtime));
}

/// A tone whose dominant frequency drops to 0 Hz at `fail_at` seconds, so
/// the power-flow model refuses the substep that reads it.
class FailingVibration final : public VibrationSource {
public:
    explicit FailingVibration(double fail_at) : fail_at_(fail_at) {}
    double acceleration(double t) const override { return 0.6 * std::sin(2.0 * M_PI * 72.0 * t); }
    double dominant_frequency(double t) const override { return t < fail_at_ ? 72.0 : 0.0; }
    double rms_amplitude() const override { return 0.6 / M_SQRT2; }

private:
    double fail_at_;
};

/// A tone whose source throws once asked for its frequency at or after
/// `throw_at` seconds. At a tuning-check instant the check asks first, so
/// the run fails in that event, with the instant in the message.
class ThrowingVibration final : public VibrationSource {
public:
    explicit ThrowingVibration(double throw_at) : throw_at_(throw_at) {}
    double acceleration(double t) const override { return 0.6 * std::sin(2.0 * M_PI * 72.0 * t); }
    double dominant_frequency(double t) const override {
        if (t >= throw_at_) throw std::runtime_error("source failed at t = " + hex(t));
        return 72.0;
    }
    double rms_amplitude() const override { return 0.6 / M_SQRT2; }

private:
    double throw_at_;
};

/// A strong tone into a small store that starts just under the 5 V clamp:
/// the storage clamps 490 of its 50 ms leakage sub-steps (counted in an
/// instrumented build), where no other config here clamps any.
NodeSimConfig clamp_config() {
    NodeSimConfig c = base_config(120.0);
    c.vibration = std::make_shared<SineVibration>(2.0, 72.0);
    c.storage.capacitance = 0.01;
    c.storage.initial_voltage = 4.9;
    return c;
}

/// S1-S3's CCD points and 8 hold-out LHS points each, alternating between
/// three short horizons so that runs in one batch end at different times,
/// each scenario's block followed by one clamping run.
std::vector<NodeSimConfig> lane_configs() {
    namespace core = ehdoe::core;
    namespace doe = ehdoe::doe;
    const double horizons[3] = {20.0, 45.0, 31.0};
    std::vector<NodeSimConfig> configs;
    for (const core::ScenarioId id : {core::ScenarioId::OfficeHvac, core::ScenarioId::Industrial,
                                      core::ScenarioId::Transport}) {
        std::vector<core::Scenario> scenarios;
        for (const double h : horizons) scenarios.push_back(core::Scenario::make(id, h));
        const doe::DesignSpace space = scenarios[0].design_space();
        for (const doe::Design& d :
             {doe::central_composite(space.dimension()),
              doe::latin_hypercube(8, space.dimension(), std::uint64_t{42})}) {
            const ehdoe::num::Matrix natural = doe::to_natural(space, d);
            for (std::size_t r = 0; r < natural.rows(); ++r) {
                configs.push_back(scenarios[configs.size() % 3].configure(natural.row(r)));
            }
        }
        configs.push_back(clamp_config());
    }
    return configs;
}

/// A detuned start on a small store with a fast task: the firmware backs
/// off below 1.95 V (200 low-voltage skips), the node still browns out
/// (208 tasks fall due while it is off) and spends ~125 s down.
NodeSimConfig brownout_config() {
    NodeSimConfig c = base_config(300.0);
    c.initial_resonance_hz = 80.0;
    c.storage.capacitance = 0.05;
    c.firmware.task_period = 0.3;
    c.firmware.low_voltage_threshold = 1.95;
    c.firmware.recover_voltage = 2.45;
    c.firmware.backoff_factor = 2.0;
    c.controller.check_period = 7.0;
    return c;
}

/// The firmware task and the tuning check fall due at the same instants
/// (both every 4 s, never backed off) while the controller retunes a
/// detuned start.
NodeSimConfig simultaneous_config() {
    NodeSimConfig c = base_config(120.0);
    c.initial_resonance_hz = 70.0;
    c.firmware.task_period = 4.0;
    c.controller.check_period = 4.0;
    c.controller.deadband_hz = 0.3;
    return c;
}

/// 40 points of a seeded LHS at 20 s, three S2 runs then two S1 runs in
/// turn. S2's drifting line asks for an operating point every substep, S1's
/// clean line only while its actuator moves. Neighbouring configs differ in
/// generator mass, coupling or both, and in equivalent load and converter
/// efficiency, so two runs solved side by side carry different models.
std::vector<NodeSimConfig> mixed_model_configs() {
    namespace core = ehdoe::core;
    namespace doe = ehdoe::doe;
    const core::Scenario s1 = core::Scenario::make(core::ScenarioId::OfficeHvac, 20.0);
    const core::Scenario s2 = core::Scenario::make(core::ScenarioId::Industrial, 20.0);
    const ehdoe::num::Matrix natural = doe::to_natural(
        s1.design_space(), doe::latin_hypercube(40, s1.design_space().dimension(),
                                                std::uint64_t{7}));
    const double loads[4] = {-1.0, 6000.0, 9000.0, 12000.0};  // -1: the optimum
    std::vector<NodeSimConfig> configs;
    for (std::size_t i = 0; i < natural.rows(); ++i) {
        NodeSimConfig c = (i % 5 < 3 ? s2 : s1).configure(natural.row(i));
        c.harvester.generator.mass *= 1.0 + 0.05 * static_cast<double>(i % 3);
        c.harvester.generator.coupling *= 1.0 + 0.04 * static_cast<double>(i % 4);
        c.harvester.equivalent_load = loads[i % 4];
        c.harvester.converter_efficiency = 0.5 + 0.05 * static_cast<double>(i % 5);
        configs.push_back(std::move(c));
    }
    return configs;
}

/// Folds the bit pattern of `v` into the 64-bit FNV-1a digest `h`.
std::uint64_t fnv1a(std::uint64_t h, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3u;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325u;

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

TEST(NodeSim, BrownOutGoldenIsBitwiseStable) {
    // Downtime, both skip decisions and the firmware's backoff, which the
    // design-point goldens above never reach (their downtime is 0).
    const NodeMetrics m = simulate_node(brownout_config());
    EXPECT_GT(m.downtime, 0.0);
    expect_metrics(m, NodeMetrics{0x1.2cp+8, 0x1.4d99837876d91p-7, 0x1.46e7d4db7b8e3p-4,
                                  0x1.0b0057e92cef8p-7, 0x1.0845a50215c91p-7, 184, 408, 1, 25,
                                  0x1.e5eab3208d7a2p+0, 0x1.e93bed06516aep+0,
                                  0x1.f3ffffffffe38p+6});
}

TEST(NodeSim, SimultaneousTaskAndCheckFireTheTaskFirst) {
    // 29 instants with both events due: the task, scheduled first, fires
    // first. Firing the check first would read E_harv 0x1.30888973ceb14p-8
    // and V_min 0x1.456ec9c1b651fp+1.
    const NodeSimConfig c = simultaneous_config();
    ASSERT_EQ(c.firmware.task_period, c.controller.check_period);
    expect_metrics(simulate_node(c),
                   NodeMetrics{0x1.ep+6, 0x1.30888a0b40724p-8, 0x1.5edc85a64d90bp-6,
                               0x1.363e167806a88p-7, 0x1.63e367298bdacp-8, 29, 0, 11, 29,
                               0x1.456ecbb7540ebp+1, 0x1.456ecbb7540ebp+1, 0x0p+0});
}

TEST(NodeSim, TuningDisabledGoldenIsBitwiseStable) {
    NodeSimConfig c = base_config(120.0);
    c.tuning_enabled = false;
    c.initial_resonance_hz = 72.5;
    expect_metrics(simulate_node(c),
                   NodeMetrics{0x1.ep+6, 0x1.ca70cba41394ep-9, 0x1.4b70f9490e44dp-8, 0x0p+0,
                               0x1.60666a20dea47p-8, 11, 0, 0, 0, 0x1.4a83f1eeb6a3ep+1,
                               0x1.4a83f1eeb6a3ep+1, 0x0p+0});
}

TEST(NodeSim, TracedGoldenIsBitwiseStable) {
    // A detuned start retuned at the 2 s check: the trajectory's length
    // and every field of every point, then the run's metrics.
    NodeSimConfig c = base_config(8.0);
    c.initial_resonance_hz = 70.0;
    c.controller.check_period = 2.0;
    c.controller.deadband_hz = 0.3;
    c.firmware.task_period = 3.0;
    NodeSimulation sim(c);
    std::vector<TracePoint> trace;
    const NodeMetrics m = sim.run_traced(0.5, trace);
    const TracePoint golden[] = {
        {0x1.999999999999ap-4, 0x1.4ccc5cae933efp+1, 0x1.2p+6, 0x1.17fffffff9cd6p+6, 0x0p+0},
        {0x1p-1, 0x1.4cca9c36c071bp+1, 0x1.2p+6, 0x1.17fffffff9cd6p+6, 0x0p+0},
        {0x1.1999999999999p+0, 0x1.4cc7fb863e783p+1, 0x1.2p+6, 0x1.17fffffff9cd6p+6, 0x0p+0},
        {0x1.8000000000001p+0, 0x1.4cc63b12b94a6p+1, 0x1.2p+6, 0x1.17fffffff9cd6p+6, 0x0p+0},
        {0x1p+1, 0x1.4cc40a84be744p+1, 0x1.2p+6, 0x1.17fffffff9cd6p+6, 0x0p+0},
        {0x1.4000000000001p+1, 0x1.4c853ef5de473p+1, 0x1.2p+6, 0x1.1f6e638f1eb63p+6,
         0x1.2df2209211841p-15},
        {0x1.8p+1, 0x1.4c84d9266ee26p+1, 0x1.2p+6, 0x1.1f6e638f1eb63p+6, 0x1.654743aec3b97p-15},
        {0x1.c000000000001p+1, 0x1.4c6435ea44465p+1, 0x1.2p+6, 0x1.1f6e638f1eb63p+6,
         0x1.65301a008f9bdp-15},
        {0x1p+2, 0x1.4c63d052dbd4p+1, 0x1.2p+6, 0x1.1f6e638f1eb63p+6, 0x1.652fd1e3836ddp-15},
        {0x1.2666666666664p+2, 0x1.4c4b343cde1e2p+1, 0x1.2p+6, 0x1.1f6e638f1eb63p+6,
         0x1.651e592c38142p-15},
        {0x1.4666666666662p+2, 0x1.4c4acecfddc3cp+1, 0x1.2p+6, 0x1.1f6e638f1eb63p+6,
         0x1.651e1127b4e6bp-15},
        {0x1.666666666666p+2, 0x1.4c4a696389679p+1, 0x1.2p+6, 0x1.1f6e638f1eb63p+6,
         0x1.651dc9239545p-15},
        {0x1.866666666665ep+2, 0x1.4c119a434188ep+1, 0x1.2p+6, 0x1.1f6e638f1eb63p+6,
         0x1.64f56f2424b6bp-15},
        {0x1.a66666666665cp+2, 0x1.4c113537ec6d3p+1, 0x1.2p+6, 0x1.1f6e638f1eb63p+6,
         0x1.64f5275834ec2p-15},
        {0x1.c66666666665ap+2, 0x1.4c10d02d42a1fp+1, 0x1.2p+6, 0x1.1f6e638f1eb63p+6,
         0x1.64f4df8ca873p-15},
        {0x1.e666666666658p+2, 0x1.4c106b2344262p+1, 0x1.2p+6, 0x1.1f6e638f1eb63p+6,
         0x1.64f497c17f4b3p-15},
    };
    ASSERT_EQ(trace.size(), std::size(golden));
    for (std::size_t i = 0; i < trace.size(); ++i) {
        SCOPED_TRACE("trace point " + std::to_string(i));
        EXPECT_EQ(hex(trace[i].t), hex(golden[i].t));
        EXPECT_EQ(hex(trace[i].v_store), hex(golden[i].v_store));
        EXPECT_EQ(hex(trace[i].f_exc), hex(golden[i].f_exc));
        EXPECT_EQ(hex(trace[i].f_res), hex(golden[i].f_res));
        EXPECT_EQ(hex(trace[i].p_harvest), hex(golden[i].p_harvest));
    }
    expect_metrics(m, NodeMetrics{0x1p+3, 0x1.f67d824860081p-13, 0x1.1462e41289059p-9,
                                  0x1.514b3e3702ea5p-10, 0x1.887d04844bb1bp-12, 2, 0, 1, 3,
                                  0x1.4c101a4ef3e6fp+1, 0x1.4c101a4ef3e6fp+1, 0x0p+0});
}

TEST(NodeSim, OverVoltageClampGoldenIsBitwiseStable) {
    // The storage's over-voltage clamp, which no design-point run reaches:
    // the run ends on it.
    const NodeSimConfig c = clamp_config();
    const NodeMetrics m = simulate_node(c);
    EXPECT_EQ(m.v_end, c.storage.max_voltage);
    expect_metrics(m, NodeMetrics{0x1.ep+6, 0x1.164f2b85438fep-5, 0x1.a7f67486db68ap-8,
                                  0x1.7215ecf734a55p-10, 0x1.454e8377edf7cp-6, 11, 0, 0, 5,
                                  0x1.399999999999ap+2, 0x1.4p+2, 0x0p+0});
}

TEST(NodeLanes, DefaultHorizonCcdDigestsAreBitwiseStable) {
    // Every response of each scenario's 48 CCD runs at its default horizon
    // (S1 300 s, S2 600 s, S3 300 s), from one simulate_nodes() call, folded
    // into an FNV-1a digest of the responses' bit patterns. S2's drifting
    // line recomputes the operating point every substep, as it does in the
    // paper's flow.
    namespace core = ehdoe::core;
    const std::pair<core::ScenarioId, std::uint64_t> golden[] = {
        {core::ScenarioId::OfficeHvac, 0x150d417b6e2b17aau},
        {core::ScenarioId::Industrial, 0x6148c458e8cfbca4u},
        {core::ScenarioId::Transport, 0x70bcc090da982b2cu},
    };
    for (const auto& [id, digest] : golden) {
        const core::Scenario sc = core::Scenario::make(id);
        SCOPED_TRACE(sc.name());
        const ehdoe::num::Matrix natural = ehdoe::doe::to_natural(
            sc.design_space(), ehdoe::doe::central_composite(sc.design_space().dimension()));
        std::vector<NodeSimConfig> configs;
        for (std::size_t r = 0; r < natural.rows(); ++r) {
            configs.push_back(sc.configure(natural.row(r)));
        }
        ASSERT_EQ(configs.size(), 48u);
        std::uint64_t h = kFnvBasis;
        for (const NodeOutcome& o : simulate_nodes(configs)) {
            ASSERT_FALSE(o.error);
            for (const auto& [name, value] : core::responses_from_metrics(o.metrics)) {
                h = fnv1a(h, value);
            }
        }
        EXPECT_EQ(h, digest);
    }
}

TEST(NodeLanes, MixedModelBatchesMatchSerialRunsAndTheirDigest) {
    // Batches of 1 to 7 configs, so a round solves 0 to 4 operating points,
    // odd counts included, for runs of different models side by side.
    const std::vector<NodeSimConfig> configs = mixed_model_configs();
    std::uint64_t h = kFnvBasis;
    std::size_t begin = 0;
    for (std::size_t size = 1; begin < configs.size(); size = size % 7 + 1) {
        const std::size_t end = std::min(configs.size(), begin + size);
        const std::vector<NodeSimConfig> batch(configs.begin() + begin, configs.begin() + end);
        const std::vector<NodeOutcome> outcomes = simulate_nodes(batch);
        ASSERT_EQ(outcomes.size(), batch.size());
        for (std::size_t k = 0; k < batch.size(); ++k) {
            SCOPED_TRACE("config " + std::to_string(begin + k));
            ASSERT_FALSE(outcomes[k].error);
            const NodeMetrics& m = outcomes[k].metrics;
            expect_metrics(m, simulate_node(batch[k]));
            for (const double v :
                 {m.duration, m.energy_harvested, m.energy_consumed, m.energy_tuning,
                  m.energy_leaked, static_cast<double>(m.packets_delivered),
                  static_cast<double>(m.packets_missed), static_cast<double>(m.retunes),
                  static_cast<double>(m.freq_checks), m.v_min, m.v_end, m.downtime}) {
                h = fnv1a(h, v);
            }
        }
        begin = end;
    }
    EXPECT_EQ(h, 0xb8c2eed1501414aeu);
}

TEST(NodeLanes, MatchSerialRunsBitwiseInBatchesOfOneToNine) {
    const std::vector<NodeSimConfig> configs = lane_configs();
    std::vector<NodeMetrics> serial;
    for (const NodeSimConfig& c : configs) serial.push_back(NodeSimulation(c).run());

    // Batches of 1, 2, ..., 9, 1, 2, ... so lanes refill mid-batch, sit
    // idle in short batches and start with fewer configs than lanes.
    std::size_t begin = 0;
    for (std::size_t size = 1; begin < configs.size(); size = size % 9 + 1) {
        const std::size_t end = std::min(configs.size(), begin + size);
        const std::vector<NodeSimConfig> batch(configs.begin() + begin, configs.begin() + end);
        const std::vector<NodeOutcome> outcomes = simulate_nodes(batch);
        ASSERT_EQ(outcomes.size(), batch.size());
        for (std::size_t k = 0; k < batch.size(); ++k) {
            SCOPED_TRACE("config " + std::to_string(begin + k));
            ASSERT_FALSE(outcomes[k].error);
            expect_metrics(outcomes[k].metrics, serial[begin + k]);
        }
        begin = end;
    }
    EXPECT_TRUE(simulate_nodes({}).empty());
}

TEST(NodeLanes, AFailingRunFailsOnlyItsOwnOutcome) {
    // Substeps of 0.1, 0.25 and 0.35 s take 2, 6 and 8 leakage sub-steps
    // (the last a 1.4e-17 s rounding residue), so each run that fails
    // shares its round with storage updates still stepping in lockstep.
    const double max_substep[3] = {0.1, 0.25, 0.35};
    std::vector<NodeSimConfig> configs;
    for (int i = 0; i < 9; ++i) {
        configs.push_back(base_config(20.0 + 5.0 * i));
        configs.back().max_substep = max_substep[i % 3];
    }
    configs[1].vibration = std::make_shared<FailingVibration>(12.0);  // throws mid-run
    configs[4].duration = 0.0;                                        // fails validation
    configs[5].initial_resonance_hz = std::nan("");                   // fails validation
    configs[7].vibration = std::make_shared<ThrowingVibration>(20.0);  // in the 20 s check
    const std::vector<NodeOutcome> outcomes = simulate_nodes(configs);
    ASSERT_EQ(outcomes.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        if (i == 1 || i == 4 || i == 5) {
            ASSERT_TRUE(outcomes[i].error);
            EXPECT_THROW(std::rethrow_exception(outcomes[i].error), std::invalid_argument);
            EXPECT_THROW(simulate_node(configs[i]), std::invalid_argument);
        } else if (i == 7) {
            ASSERT_TRUE(outcomes[i].error);
            try {
                std::rethrow_exception(outcomes[i].error);
            } catch (const std::runtime_error& e) {
                EXPECT_STREQ(e.what(), "source failed at t = 0x1.4p+4");
            }
            EXPECT_THROW(simulate_node(configs[i]), std::runtime_error);
        } else {
            ASSERT_FALSE(outcomes[i].error);
            expect_metrics(outcomes[i].metrics, simulate_node(configs[i]));
        }
    }
}

TEST(NodeSim, RejectsNonFiniteHorizonAndResonance) {
    NodeSimConfig c = base_config();
    c.duration = std::numeric_limits<double>::infinity();  // a run would never end
    EXPECT_THROW(NodeSimulation{c}, std::invalid_argument);
    c.duration = std::nan("");
    EXPECT_THROW(NodeSimulation{c}, std::invalid_argument);
    c = base_config();
    c.initial_resonance_hz = std::nan("");  // NaN > 0 is false: the untuned default
    EXPECT_THROW(NodeSimulation{c}, std::invalid_argument);
    c.initial_resonance_hz = std::numeric_limits<double>::infinity();
    EXPECT_THROW(NodeSimulation{c}, std::invalid_argument);
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
