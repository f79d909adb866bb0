// End-to-end integration: the paper's full flow on the real node simulation,
// plus the fast-engine/baseline cross-check at system level.
#include <gtest/gtest.h>

#include <cmath>

#include "core/scenario.hpp"
#include "core/toolkit.hpp"
#include "doe/lhs.hpp"

using namespace ehdoe;
using namespace ehdoe::core;
using ehdoe::num::Vector;

namespace {

DesignFlow make_flow(ScenarioId id, double horizon) {
    const Scenario sc = Scenario::make(id, horizon);
    DesignFlow::Options o;
    o.runner_threads = 8;
    return DesignFlow(sc.design_space(), sc.make_simulation(), o);
}

}  // namespace

TEST(Integration, FullFlowOnOfficeScenario) {
    DesignFlow flow = make_flow(ScenarioId::OfficeHvac, 120.0);
    const auto& res = flow.run_ccd();
    // 48 design points = 2^(6-1) + 12 axial + 4 centre; the batch engine
    // simulates the centre once and serves the 3 replicates from the cache.
    EXPECT_EQ(res.design.runs(), 48u);
    EXPECT_EQ(res.simulations, 45u);
    EXPECT_EQ(res.cache_hits, 3u);
    flow.fit_all();

    // Every indicator's RSM must explain most of the training variance.
    for (const std::string& name : flow.response_names()) {
        EXPECT_GT(flow.surface(name).fit().r_squared(), 0.55) << name;
    }
}

TEST(Integration, RsmPredictionsTrackSimulator) {
    DesignFlow flow = make_flow(ScenarioId::OfficeHvac, 120.0);
    flow.run_ccd();
    const auto v = flow.validate(kRespConsumed, 25);
    // Consumed energy is the smoothest indicator: tight prediction.
    EXPECT_LT(v.nrmse_mean, 0.35);
    EXPECT_EQ(v.points, 25u);
}

TEST(Integration, RsmEvaluationIsPracticallyInstant) {
    // The headline claim: after the DoE investment, exploring the design
    // space costs an RSM query instead of a simulation. Counted, not timed:
    // the query cost itself is a benchmark number (perfbench rsm.query_ns).
    DesignFlow flow = make_flow(ScenarioId::OfficeHvac, 120.0);
    flow.run_ccd();
    auto& s = flow.surface(kRespPackets);
    const std::size_t sims = flow.simulator_calls();
    const std::size_t points = flow.batch_stats().points;

    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        Vector x(6);
        for (int j = 0; j < 6; ++j) x[static_cast<std::size_t>(j)] =
            std::sin(0.1 * i + j) * 0.9;
        const double v = s.value(x);
        ASSERT_TRUE(std::isfinite(v)) << "query " << i;
        acc += v;
    }
    EXPECT_NE(acc, 0.0);
    EXPECT_EQ(flow.simulator_calls(), sims);
    EXPECT_EQ(flow.batch_stats().points, points);
}

TEST(Integration, OptimizationRespectsDowntimeConstraint) {
    DesignFlow flow = make_flow(ScenarioId::OfficeHvac, 120.0);
    flow.run_ccd();
    const auto out = flow.optimize(
        kRespPackets, true,
        {{kRespDowntime, -1e300, 1.0}, {kRespVmin, 2.0, 1e300}}, true);
    ASSERT_TRUE(out.confirmed.has_value());
    EXPECT_GT(*out.confirmed, 0.0);
    // Confirmation simulation close to the RSM promise (within 40%: packets
    // is an integer-valued, mildly thresholded response).
    EXPECT_NEAR(*out.confirmed, out.predicted,
                0.4 * std::max(out.predicted, 10.0));
}

TEST(Integration, DriftScenarioRewardsTuning) {
    // On S2 the tuning controller must pay for itself: enabled vs disabled.
    const Scenario sc = Scenario::make(ScenarioId::Industrial, 300.0);
    auto cfg_on = sc.base_config();
    cfg_on.duration = 300.0;
    auto cfg_off = cfg_on;
    cfg_off.tuning_enabled = false;
    const auto m_on = node::simulate_node(cfg_on);
    const auto m_off = node::simulate_node(cfg_off);
    EXPECT_GT(m_on.energy_harvested - m_on.energy_tuning, m_off.energy_harvested);
}

TEST(Integration, LhsFlowMatchesCcdFlowRoughly) {
    // Two different designs on the same scenario produce surfaces that agree
    // at the centre of the region.
    DesignFlow ccd_flow = make_flow(ScenarioId::OfficeHvac, 120.0);
    ccd_flow.run_ccd();
    DesignFlow lhs_flow = make_flow(ScenarioId::OfficeHvac, 120.0);
    lhs_flow.run(doe::latin_hypercube(60, 6, 2013));

    const Vector centre(6);
    const double a = ccd_flow.surface(kRespConsumed).value(centre);
    const double b = lhs_flow.surface(kRespConsumed).value(centre);
    EXPECT_NEAR(a, b, 0.35 * std::max(std::fabs(a), std::fabs(b)));
}
