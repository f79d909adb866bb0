// Scenario construction and factor-mapping tests.
#include <gtest/gtest.h>

#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/scenario.hpp"

using namespace ehdoe::core;
using ehdoe::num::Vector;

TEST(Scenario, AllThreeBuild) {
    for (auto id : {ScenarioId::OfficeHvac, ScenarioId::Industrial, ScenarioId::Transport}) {
        const Scenario s = Scenario::make(id, 60.0);
        EXPECT_FALSE(s.name().empty());
        EXPECT_FALSE(s.description().empty());
        EXPECT_TRUE(s.vibration() != nullptr);
        EXPECT_DOUBLE_EQ(s.duration(), 60.0);
    }
}

TEST(Scenario, DesignSpaceHasSixCanonicalFactors) {
    const Scenario s = Scenario::make(ScenarioId::OfficeHvac);
    const auto space = s.design_space();
    ASSERT_EQ(space.dimension(), 6u);
    EXPECT_EQ(space.factor(0).name, kFactorResonance);
    EXPECT_EQ(space.factor(1).name, kFactorDeadband);
    EXPECT_EQ(space.factor(2).name, kFactorDuty);
    EXPECT_EQ(space.factor(3).name, kFactorPayload);
    EXPECT_EQ(space.factor(4).name, kFactorStorage);
    EXPECT_EQ(space.factor(5).name, kFactorCheckPeriod);
    EXPECT_TRUE(space.factor(2).log_scale);
    EXPECT_TRUE(space.factor(4).log_scale);
}

TEST(Scenario, ExcitationInsideTuningRange) {
    // The tuning range must be able to reach each scenario's dominant line.
    for (auto id : {ScenarioId::OfficeHvac, ScenarioId::Industrial, ScenarioId::Transport}) {
        const Scenario s = Scenario::make(id, 60.0);
        const auto cfg = s.base_config();
        for (double t : {0.0, 20.0, 40.0, 59.0}) {
            const double f = s.vibration()->dominant_frequency(t);
            EXPECT_GE(f, cfg.tuning_map.f_min() - 1e-9) << s.name();
            EXPECT_LE(f, cfg.tuning_map.f_max() + 1e-9) << s.name();
        }
    }
}

TEST(Scenario, ConfigureMapsFactors) {
    const Scenario s = Scenario::make(ScenarioId::OfficeHvac, 60.0);
    Vector nat{75.0, 1.0, 0.005, 64.0, 0.2, 30.0};
    const auto cfg = s.configure(nat);
    EXPECT_DOUBLE_EQ(cfg.initial_resonance_hz, 75.0);
    EXPECT_DOUBLE_EQ(cfg.controller.deadband_hz, 1.0);
    EXPECT_EQ(cfg.firmware.payload_bytes, 64u);
    EXPECT_DOUBLE_EQ(cfg.storage.capacitance, 0.2);
    EXPECT_DOUBLE_EQ(cfg.controller.check_period, 30.0);
    EXPECT_NEAR(cfg.firmware.duty_cycle(cfg.power), 0.005, 1e-12);
    EXPECT_THROW(s.configure(Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(Scenario, ConfigureClampsOutOfRangeProbes) {
    const Scenario s = Scenario::make(ScenarioId::OfficeHvac, 60.0);
    // Circumscribed axial point can push below the natural range.
    Vector nat{50.0, -0.5, -0.001, 1000.0, -0.1, -5.0};
    const auto cfg = s.configure(nat);
    EXPECT_GE(cfg.initial_resonance_hz, cfg.tuning_map.f_min());
    EXPECT_GT(cfg.controller.deadband_hz, 0.0);
    EXPECT_GT(cfg.storage.capacitance, 0.0);
    EXPECT_GT(cfg.controller.check_period, 0.0);
    EXPECT_LE(cfg.firmware.payload_bytes, 1024u);
}

TEST(Scenario, SimulationFunctorReturnsAllResponses) {
    const Scenario s = Scenario::make(ScenarioId::OfficeHvac, 30.0);
    const auto sim = s.make_simulation();
    const auto space = s.design_space();
    const auto resp = sim(space.to_natural(Vector(6)));  // centre point
    EXPECT_EQ(resp.size(), 6u);
    for (const char* name : {kRespHarvested, kRespConsumed, kRespPackets, kRespVmin,
                             kRespDowntime, kRespTuning}) {
        EXPECT_TRUE(resp.count(name)) << name;
    }
    EXPECT_GT(resp.at(kRespVmin), 0.0);
}

TEST(Scenario, SimulationDeterministic) {
    const Scenario s = Scenario::make(ScenarioId::Transport, 30.0);
    const auto sim = s.make_simulation();
    const auto space = s.design_space();
    const Vector nat = space.to_natural(Vector(6));
    const auto a = sim(nat);
    const auto b = sim(nat);
    EXPECT_EQ(a, b);
}

TEST(Scenario, ConfigureRejectsNonFiniteFactors) {
    const Scenario s = Scenario::make(ScenarioId::OfficeHvac, 60.0);
    const Vector centre = s.design_space().to_natural(Vector(6));
    for (std::size_t i = 0; i < 6; ++i) {
        for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
            Vector x = centre;
            x[i] = bad;  // std::clamp passes a NaN through
            EXPECT_THROW(s.configure(x), std::invalid_argument) << "factor " << i;
        }
    }
}

TEST(Scenario, InfiniteHorizonIsRejectedInsteadOfRunningForever) {
    const Scenario s = Scenario::make(ScenarioId::OfficeHvac,
                                      std::numeric_limits<double>::infinity());
    const auto sim = s.make_simulation();
    EXPECT_THROW(sim(s.design_space().to_natural(Vector(6))), std::invalid_argument);
}

TEST(Scenario, BatchFailsOnlyTheNonFinitePoint) {
    // The batched simulation runs its points as node lanes: the NaN point's
    // outcome is its rejection, and every other point still gets its
    // one-point responses bit for bit.
    const Scenario s = Scenario::make(ScenarioId::Industrial, 40.0);
    const auto sim = s.make_simulation();
    EXPECT_EQ(sim.width(), ehdoe::node::kNodeLanes);
    const auto space = s.design_space();
    std::vector<Vector> points;
    for (double c : {-1.0, -0.5, 0.0, 0.5, 1.0}) points.push_back(space.to_natural(Vector(6, c)));
    points[2][3] = std::nan("");
    std::vector<PointOutcome> out(points.size());
    sim.evaluate(points.data(), points.size(), out.data());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        if (i == 2) {
            ASSERT_TRUE(out[i].error);
            EXPECT_THROW(std::rethrow_exception(out[i].error), std::invalid_argument);
            EXPECT_THROW(sim(points[i]), std::invalid_argument);
        } else {
            ASSERT_FALSE(out[i].error);
            EXPECT_EQ(out[i].responses, sim(points[i]));
        }
    }
}

TEST(Scenario, IndustrialDriftActuallyDrifts) {
    const Scenario s = Scenario::make(ScenarioId::Industrial, 600.0);
    const double f0 = s.vibration()->dominant_frequency(0.0);
    const double fmid = s.vibration()->dominant_frequency(300.0);
    EXPECT_GT(std::abs(fmid - f0), 5.0);
}

TEST(ResponsesFromMetrics, Mapping) {
    ehdoe::node::NodeMetrics m;
    m.energy_harvested = 1.0;
    m.packets_delivered = 7;
    m.downtime = 3.0;
    const auto r = responses_from_metrics(m);
    EXPECT_DOUBLE_EQ(r.at(kRespHarvested), 1.0);
    EXPECT_DOUBLE_EQ(r.at(kRespPackets), 7.0);
    EXPECT_DOUBLE_EQ(r.at(kRespDowntime), 3.0);
}
