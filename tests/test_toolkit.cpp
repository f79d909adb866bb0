// DesignFlow tests on a cheap synthetic simulation (exact quadratic world).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/toolkit.hpp"
#include "opt/nelder_mead.hpp"

using namespace ehdoe::core;
namespace doe = ehdoe::doe;
namespace rsm = ehdoe::rsm;
using ehdoe::num::Vector;

namespace {

// Synthetic "node": two factors, analytic responses.
//   perf = 10 - (x-6)^2/4 - (y-2)^2      (max 10 at x=6,y=2)
//   cost = x + 2y
doe::DesignSpace make_space() {
    return doe::DesignSpace({{"x", 0.0, 10.0, false}, {"y", 0.0, 4.0, false}});
}

doe::Simulation make_sim() {
    return [](const Vector& nat) {
        const double x = nat[0], y = nat[1];
        return std::map<std::string, double>{
            {"perf", 10.0 - (x - 6.0) * (x - 6.0) / 4.0 - (y - 2.0) * (y - 2.0)},
            {"cost", x + 2.0 * y},
        };
    };
}

std::string hex(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

}  // namespace

TEST(DesignFlow, CcdRunAndFit) {
    DesignFlow flow(make_space(), make_sim(), {});
    const auto& res = flow.run_ccd();
    EXPECT_GT(res.simulations, 0u);
    EXPECT_TRUE(flow.has_results());
    const auto& s = flow.surface("perf");
    EXPECT_NEAR(s.fit().r_squared(), 1.0, 1e-9);  // quadratic truth: exact
    EXPECT_EQ(flow.response_names().size(), 2u);
    flow.fit_all();
}

TEST(DesignFlow, ThrowsBeforeRun) {
    DesignFlow flow(make_space(), make_sim(), {});
    EXPECT_THROW(flow.results(), std::logic_error);
    EXPECT_THROW(flow.surface("perf"), std::logic_error);
}

TEST(DesignFlow, ValidationNearZeroErrorForExactModel) {
    DesignFlow flow(make_space(), make_sim(), {});
    flow.run_ccd();
    const auto v = flow.validate("perf", 30);
    EXPECT_LT(v.rmse, 1e-8);
    EXPECT_EQ(v.points, 30u);
}

TEST(DesignFlow, SweepFollowsTruth) {
    DesignFlow flow(make_space(), make_sim(), {});
    flow.run_ccd();
    const auto curve = flow.sweep("perf", "x", Vector{0.0, 0.0}, 11);
    ASSERT_EQ(curve.size(), 11u);
    EXPECT_DOUBLE_EQ(curve.front().first, 0.0);   // natural units
    EXPECT_DOUBLE_EQ(curve.back().first, 10.0);
    // y fixed at centre (natural 2): perf(x) = 10 - (x-6)^2/4.
    for (const auto& [x, p] : curve) {
        EXPECT_NEAR(p, 10.0 - (x - 6.0) * (x - 6.0) / 4.0, 1e-7);
    }
}

TEST(DesignFlow, UnconstrainedOptimizationFindsPeak) {
    DesignFlow flow(make_space(), make_sim(), {});
    flow.run_ccd();
    const auto out = flow.optimize("perf", true, {}, true);
    EXPECT_NEAR(out.natural[0], 6.0, 0.05);
    EXPECT_NEAR(out.natural[1], 2.0, 0.05);
    EXPECT_NEAR(out.predicted, 10.0, 1e-3);
    ASSERT_TRUE(out.confirmed.has_value());
    EXPECT_NEAR(*out.confirmed, out.predicted, 1e-6);
    EXPECT_GT(out.rsm_evaluations, 0u);
}

TEST(DesignFlow, ConstrainedOptimizationRespectsBound) {
    DesignFlow flow(make_space(), make_sim(), {});
    flow.run_ccd();
    // Maximize perf subject to cost <= 8: the unconstrained peak costs 10.
    const auto out = flow.optimize("perf", true, {{"cost", -1e300, 8.0}}, false);
    EXPECT_LE(out.predicted_responses.at("cost"), 8.0 + 0.05);
    EXPECT_LT(out.predicted, 10.0);
    // But still the best available on the constraint boundary.
    EXPECT_GT(out.predicted, 8.0);
}

TEST(DesignFlow, PredictAllInstant) {
    DesignFlow flow(make_space(), make_sim(), {});
    flow.run_ccd();
    const auto pred = flow.predict_all(Vector{0.0, 0.0});
    EXPECT_EQ(pred.size(), 2u);
    EXPECT_NEAR(pred.at("cost"), 9.0, 1e-6);  // centre: x=5, y=2 -> 5 + 2*2
}

TEST(DesignFlow, SimulatorCallAccounting) {
    DesignFlow flow(make_space(), make_sim(), {});
    const auto& res = flow.run_ccd();
    const std::size_t after_doe = flow.simulator_calls();
    EXPECT_EQ(after_doe, res.simulations);
    EXPECT_EQ(flow.simulator_calls(), flow.batch_stats().simulations);
    flow.validate("perf", 10);
    EXPECT_EQ(flow.simulator_calls(), after_doe + 10);
    EXPECT_EQ(flow.simulator_calls(), flow.batch_stats().simulations);
    // The optimum (x=6, y=2) is no design or hold-out point: confirming it
    // costs one simulation, counted once.
    const auto out = flow.optimize("perf", true, {}, true);
    ASSERT_TRUE(out.confirmed);
    EXPECT_NEAR(*out.confirmed, 10.0, 1e-3);
    EXPECT_EQ(flow.simulator_calls(), after_doe + 11);
    EXPECT_EQ(flow.simulator_calls(), flow.batch_stats().simulations);
}

TEST(DesignFlow, CustomDesignRun) {
    DesignFlow flow(make_space(), make_sim(), {});
    const auto& res = flow.run(doe::full_factorial(2, 3));  // 3^2 grid
    EXPECT_EQ(res.simulations, 9u);
    EXPECT_NEAR(flow.surface("perf").fit().r_squared(), 1.0, 1e-9);
}

TEST(DesignFlow, RequiresSimulation) {
    EXPECT_THROW(DesignFlow(make_space(), nullptr, {}), std::invalid_argument);
}

TEST(DesignFlow, S1GoldenFitsOptimumAndGridAreBitwiseStable) {
    // S1 at a 120 s horizon under the default options, pinned as hexfloats:
    // the six quadratic fits, a constrained optimum without confirmation and
    // E_harv's grid scan both ways. A faster RSM query or simplex must move
    // neither a bit nor an evaluation.
    const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, 120.0);
    DesignFlow flow(sc.design_space(), sc.make_simulation(), {});
    flow.run_ccd();
    flow.fit_all();
    const std::map<std::string, std::vector<double>> coefficients = {
            {"E_cons",
             {
                0x1.5acef32f85fc3p-6, -0x1.4a4ced591c642p-11, -0x1.a846db1481239p-11,
                0x1.e8f81664d1fa4p-6, 0x1.b9038c39e652cp-8, 0x1.55fd95905f332p-7,
                -0x1.04c409214cb2ap-6, 0x1.8d325309631a8p-13, 0x1.22fbdd8b90fd8p-13,
                0x1.2e0a1f5e8ad0fp-13, -0x1.22fbdd8b90e91p-13, -0x1.bf45eeeaf46fbp-16,
                0x1.00c2b9695eb5fp-12, 0x1.3e02285d7b153p-15, -0x1.00c2b9695e7cdp-12,
                0x1.ef4f054e4b1ccp-11, 0x1.9ea37d367ad91p-8, 0x1.6b5d6ee965269p-7,
                0x1.c5ac813706a96p-10, 0x1.6ae674547c68fp-8, -0x1.8fd169ba7dcf6p-13,
                -0x1.c5ac81370628bp-10, -0x1.65e8f87dee7d2p-11, -0x1.191bc6a0221p-9,
                0x1.dd9d14c39ce4p-6, -0x1.ae8fa50286ca5p-9, -0x1.3a8827f24c7dcp-9,
                0x1.5656e6c305a9bp-7,
             }},
            {"E_harv",
             {
                0x1.ab917b28bbbbbp-8, 0x1.b4f11cfd28206p-15, 0x1.06a81b8633675p-13,
                -0x1.03e3667d088d7p-13, -0x1.8f80ff9849846p-16, 0x1.7dd80fce14db6p-13,
                -0x1.aee22cdcc9d99p-10, -0x1.d8df117019c45p-17, 0x1.2114d641f3e36p-18,
                -0x1.98eb5d93129f5p-22, -0x1.2783553dfa522p-17, -0x1.74b0f7fab7fb9p-18,
                -0x1.d92883163913fp-20, 0x1.67e08e55537b2p-18, 0x1.2758fdf6e0678p-23,
                -0x1.06c4ff4aef9e2p-13, -0x1.806b5b2144a58p-16, 0x1.910835eb7c12bp-14,
                0x1.398896e207693p-16, 0x1.04ec1a98b3c61p-16, 0x1.ac4b347a02066p-17,
                -0x1.5d982cb321e0cp-14, -0x1.7a0ef654b6a2cp-14, -0x1.ca1333fa91b95p-14,
                -0x1.13434de542513p-14, 0x1.825971af44c64p-16, -0x1.185d5e23a0138p-16,
                -0x1.6287eabc7e865p-10,
             }},
            {"E_tune",
             {
                0x1.31fc817f0a014p-8, -0x1.81a8fb4fb0562p-11, -0x1.f03921c8e6c7dp-11,
                -0x1.870ea28017ffcp-14, -0x1.a36e2eb1c407dp-16, 0x1.870ea2801818p-14,
                -0x1.1decc5dc638dep-6, -0x1.d29dc725c4052p-16, 0x1.bda5119ce03afp-16,
                0x1.9f7f8ca819752p-14, -0x1.bda5119ce0dc8p-16, -0x1.00e6afcce2184p-16,
                0x1.9f7f8ca8196c3p-14, 0x1.bda5119ce0323p-16, -0x1.9f7f8ca8198eap-14,
                0x1.0370cdc8754b4p-10, -0x1.bda5119ce0973p-16, 0x1.9f7f8ca8198p-14,
                0x1.9f7f8ca819738p-14, 0x1.bda5119ce03f8p-16, 0x1.bda5119cdff0bp-16,
                -0x1.9f7f8ca8199f1p-14, 0x1.e68bd88a8e85fp-10, 0x1.9d231e25065f9p-12,
                0x1.2380272765e66p-13, 0x1.2380272765dd1p-13, 0x1.2380272765e08p-13,
                0x1.a986f15c36466p-7,
             }},
            {"V_min",
             {
                0x1.4706844fa1136p+1, 0x1.4f3bcefffd7fbp-9, 0x1.d03ecb3ebe8dbp-9,
                -0x1.85371fa36b1eep-4, -0x1.740d7b95522d7p-7, 0x1.273515bf3c1c6p-3,
                0x1.ea41e24ad570fp-5, -0x1.e31e077f155e5p-10, -0x1.095355e2c5d61p-10,
                -0x1.2362f9cb5ac4bp-10, -0x1.020d288a6f573p-9, 0x1.2c028cdccd6eap-13,
                -0x1.096bc3ae89643p-9, -0x1.6293763d347ffp-12, -0x1.685de1b62dd37p-9,
                -0x1.2edabc45a2eecp-8, -0x1.21e46493211ddp-7, 0x1.005060e03d10ep-4,
                -0x1.76cf00aa5f51fp-7, 0x1.a4b144eabb19bp-10, 0x1.069a7eb0ae8c3p-9,
                -0x1.8e0730c1a16cep-5, -0x1.17af9c768e0eep-8, -0x1.793a398748298p-11,
                -0x1.4d90d43b546bbp-4, 0x1.3afdf9fea4f89p-9, -0x1.16825dc496dedp-5,
                -0x1.25354286236edp-5,
             }},
            {"downtime",
             {
                -0x0p+0, -0x0p+0, -0x0p+0,
                0x0p+0, 0x0p+0, 0x0p+0,
                0x0p+0, -0x0p+0, -0x0p+0,
                -0x0p+0, -0x0p+0, -0x0p+0,
                0x0p+0, 0x0p+0, 0x0p+0,
                0x0p+0, -0x0p+0, 0x0p+0,
                -0x0p+0, 0x0p+0, -0x0p+0,
                -0x0p+0, -0x0p+0, -0x0p+0,
                -0x0p+0, -0x0p+0, -0x0p+0,
                -0x0p+0,
             }},
            {"packets",
             {
                0x1.b39f76166928dp+4, 0x1.a5a5a5a5a59f6p-3, 0x1.4b4b4b4b4b4b9p-2,
                0x1.014b4b4b4b4afp+6, -0x1.543c3c3c3c3cap+4, 0x1.2da5a5a5a5a5bp+4,
                0x1.01e1e1e1e1e14p+2, 0x1.4c00000000036p+1, 0x1.bfffffffffcb3p-3,
                -0x1.0000000000836p-5, -0x1.bffffffffff91p-3, 0x1.3fffffffffe56p-3,
                0x1.5fffffffffe51p-2, -0x1.40000000001ap-3, -0x1.60000000000f8p-2,
                0x1.fffffffffeaafp-6, -0x1.528p+4, 0x1.4080000000004p+4,
                0x1.1200000000029p+2, -0x1.5ffffffffff62p-2, -0x1.4bfffffffffe3p+1,
                -0x1.11fffffffffefp+2, -0x1.8ef9f7616694bp+1, -0x1.8ef9f7616693fp+1,
                0x1.af106089e9971p+5, -0x1.1df3eec2cd21ap+0, -0x1.8ef9f7616692ap+1,
                -0x1.8ef9f76166942p+1,
             }},
    };
    ASSERT_EQ(flow.response_names().size(), coefficients.size());
    for (const auto& [name, golden] : coefficients) {
        const Vector& beta = flow.surface(name).fit().coefficients;
        ASSERT_EQ(beta.size(), golden.size()) << name;
        for (std::size_t j = 0; j < golden.size(); ++j)
            EXPECT_EQ(hex(beta[j]), hex(golden[j])) << name << " term " << j;
    }

    const auto out = flow.optimize(kRespPackets, true,
                                   {{kRespDowntime, -1e300, 1.0}, {kRespVmin, 2.0, 1e300}}, false);
    const double coded[6] = {0x1.e24cb0f9f933cp-4, 0x1.0c5fa19c6c6f4p-3, 0x1p+0,
                             -0x1.ffffffffedbe2p-1, 0x1p+0, 0x1p+0};
    ASSERT_EQ(out.coded.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(hex(out.coded[i]), hex(coded[i])) << i;
    EXPECT_EQ(hex(out.predicted), hex(0x1.c4d23686d6e4bp+7));
    EXPECT_EQ(out.rsm_evaluations, 17382u);
    const std::map<std::string, double> responses = {
        {"E_cons", 0x1.26f1a72a97409p-4}, {"E_harv", 0x1.d4d7d035eb0d6p-9},
        {"E_tune", 0x1.55f5373451c3p-11}, {"V_min", 0x1.44480a8ddcaf9p+1},
        {"downtime", 0x0p+0},             {"packets", 0x1.c4d23686d6e4bp+7},
    };
    ASSERT_EQ(out.predicted_responses.size(), responses.size());
    for (const auto& [name, golden] : responses)
        EXPECT_EQ(hex(out.predicted_responses.at(name)), hex(golden)) << name;

    const rsm::ResponseSurface& harv = flow.surface(kRespHarvested);
    const auto high = harv.grid_best(5, true);
    const auto low = harv.grid_best(5, false);
    const double high_coded[6] = {0.0, 1.0, 0.0, -1.0, 1.0, -0.5};
    const double low_coded[6] = {-1.0, -1.0, 1.0, 1.0, -1.0, 1.0};
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(hex(high.coded[i]), hex(high_coded[i])) << i;
        EXPECT_EQ(hex(low.coded[i]), hex(low_coded[i])) << i;
    }
    EXPECT_EQ(hex(high.value), hex(0x1.e01f354de75fdp-8));
    EXPECT_EQ(hex(low.value), hex(0x1.74b539ae0d22ap-9));
}

namespace {

// DesignFlow::optimize's penalised objective for the paper flow's query
// (maximise packets with downtime <= 0 and V_min >= 2.1), rebuilt from a
// flow's fitted surfaces, and its 18 starts: the 5-level grid winner, the
// centre and the 16 corners.
struct PenalisedPackets {
    explicit PenalisedPackets(DesignFlow& flow) : model(&flow.surface(kRespPackets).fit().model) {
        for (const char* name : {kRespPackets, kRespDowntime, kRespVmin})
            betas.push_back(flow.surface(name).fit().coefficients.data());
        const std::vector<double> y = flow.results().response(kRespPackets);
        const auto [lo, hi] = std::minmax_element(y.begin(), y.end());
        spread = std::max(*hi - *lo, 1e-12);
        weight = 1e3 * spread;
        starts.push_back(flow.surface(kRespPackets).grid_best(5, true).coded);
        starts.emplace_back(6);
        for (unsigned c = 0; c < 16; ++c) {
            Vector corner(6);
            for (std::size_t f = 0; f < 6; ++f) corner[f] = ((c >> (f % 4)) & 1u) ? 0.9 : -0.9;
            starts.push_back(corner);
        }
    }

    void operator()(const double* points, std::size_t n, double* values) const {
        std::vector<double> p(3 * n);
        model->predict_block(points, n, 6, betas.data(), 3, p.data());
        const double min[2] = {-1e300, 2.1};
        const double max[2] = {0.0, 1e300};
        for (std::size_t i = 0; i < n; ++i) {
            double v = -p[3 * i];
            for (std::size_t c = 0; c < 2; ++c) {
                const double r = p[3 * i + 1 + c];
                if (r < min[c]) {
                    const double d = (min[c] - r) / spread;
                    v += weight * d * d;
                }
                if (r > max[c]) {
                    const double d = (r - max[c]) / spread;
                    v += weight * d * d;
                }
            }
            values[i] = v;
        }
    }

    const rsm::ModelSpec* model;
    std::vector<const double*> betas;
    double spread = 0.0;
    double weight = 0.0;
    std::vector<Vector> starts;
};

struct StartGolden {
    double x[6];
    double value;
    std::size_t evaluations;
    std::size_t iterations;
    bool converged;
};

// S1 at a 20 s horizon, whose 18 starts take every move a run can: nine
// shrink the simplex (start 0 eight times, 6-9 thirteen times each, 14-17
// once), start 12 stops at max_iterations and the rest converge.
const StartGolden kS1Starts[18] = {
    {{-0x1p+0, 0x1p+0, 0x1p+0, -0x1p+0, -0x1p+0, -0x1p+0}, -0x1.16537512cf943p+5, 113, 46, true},
    {{0x1p+0, 0x1.fffe312c49e1ap-1, 0x1p+0, -0x1.fffffb728e2fep-1, -0x1.ffff81ca68937p-1,
      -0x1.ffffff256bce3p-1},
     -0x1.165371155b113p+5, 1441, 949, true},
    {{-0x1p+0, -0x1p+0, 0x1p+0, -0x1.ffffffdff86e1p-1, -0x1.ffffe6afd8271p-1,
      -0x1.ffffe31b8a816p-1},
     -0x1.165374bd6d8ecp+5, 1260, 844, true},
    {{0x1.fffff74ed0022p-1, -0x1.ffffef346fdbap-1, 0x1p+0, -0x1.ffffffff7404ap-1, 0x1p+0,
      -0x1.ffffe8e0e96c4p-1},
     -0x1.165374c96d43dp+5, 1245, 834, true},
    {{-0x1p+0, 0x1.ffffe8e0e9949p-1, 0x1p+0, -0x1.ffffffff947b3p-1, -0x1.fffff74f29734p-1,
      0x1.ffffef346e83ap-1},
     -0x1.165374c971742p+5, 1245, 834, true},
    {{0x1p+0, 0x1.ffffe6afd8226p-1, 0x1p+0, -0x1.ffffffe0e84b7p-1, 0x1.ffffe31bcbe19p-1, 0x1p+0},
     -0x1.165374bd890a2p+5, 1260, 844, true},
    {{-0x1p+0, -0x1p+0, 0x1p+0, -0x1p+0, -0x1p+0, -0x1p+0}, -0x1.16537512cf941p+5, 185, 70, true},
    {{0x1p+0, -0x1p+0, 0x1p+0, -0x1p+0, 0x1p+0, -0x1p+0}, -0x1.16537512cf93dp+5, 185, 70, true},
    {{-0x1p+0, 0x1p+0, 0x1p+0, -0x1p+0, -0x1p+0, 0x1p+0}, -0x1.16537512cf943p+5, 185, 70, true},
    {{0x1p+0, 0x1p+0, 0x1p+0, -0x1p+0, 0x1p+0, 0x1p+0}, -0x1.16537512cf93fp+5, 185, 70, true},
    {{-0x1.ffffffee9af6ap-1, -0x1.ffffff94eb79fp-1, -0x1.fffffffc7311ep-1, 0x1.fffffffa540ap-1,
      -0x1.ffffffab1891ep-1, -0x1.ffffffcfb61e6p-1},
     -0x1.9ec05c199ad7cp-3, 3011, 1971, true},
    {{0x1.fffffffa15c94p-1, -0x1.ffffffb8e9cfep-1, -0x1.ffffff960aad2p-1, 0x1.ffffffba18218p-1,
      0x1.fffffe010840ep-1, -0x1p+0},
     -0x1.9ec04cede4633p-3, 2472, 1610, true},
    {{-0x1p+0, 0x1.ffffff8cd1d71p-1, -0x1p+0, 0x1.fffffed7c8693p-1, -0x1p+0, 0x1.ffffffce6fe55p-1},
     -0x1.9ec05ab54ea5ap-3, 3063, 2000, false},
    {{0x1.ffffffc20190cp-1, 0x1.ffffff62a21c2p-1, -0x1.fffffffb67e19p-1, 0x1.ffffffe9a0f76p-1,
      0x1.ffffffffd62e3p-1, 0x1.fffffb53522f3p-1},
     -0x1.9ec05501e7c94p-3, 2659, 1730, true},
    {{-0x1p+0, -0x1p+0, 0x1p+0, -0x1p+0, 0x1p+0, -0x1p+0}, -0x1.16537512cf93fp+5, 232, 162, true},
    {{0x1p+0, -0x1p+0, 0x1p+0, -0x1p+0, -0x1p+0, -0x1p+0}, -0x1.16537512cf93fp+5, 232, 162, true},
    {{0x1p+0, 0x1p+0, 0x1p+0, -0x1p+0, -0x1p+0, 0x1p+0}, -0x1.16537512cf941p+5, 232, 162, true},
    {{0x1p+0, 0x1p+0, 0x1p+0, -0x1p+0, -0x1p+0, 0x1p+0}, -0x1.16537512cf941p+5, 232, 162, true},
};

void expect_start_golden(const ehdoe::opt::OptResult& r, const StartGolden& g, std::size_t s) {
    ASSERT_EQ(r.x.size(), 6u) << "start " << s;
    for (std::size_t d = 0; d < 6; ++d)
        EXPECT_EQ(hex(r.x[d]), hex(g.x[d])) << "start " << s << " coordinate " << d;
    EXPECT_EQ(hex(r.value), hex(g.value)) << "start " << s;
    EXPECT_EQ(r.evaluations, g.evaluations) << "start " << s;
    EXPECT_EQ(r.iterations, g.iterations) << "start " << s;
    EXPECT_EQ(r.converged, g.converged) << "start " << s;
}

}  // namespace

TEST(DesignFlow, S1StartsThroughNelderMeadAreBitwiseStable) {
    // Each of optimize's 18 starts run on its own through nelder_mead.
    const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, 20.0);
    DesignFlow flow(sc.design_space(), sc.make_simulation(), {});
    flow.run_ccd();
    const PenalisedPackets f(flow);
    ASSERT_EQ(f.starts.size(), 18u);
    const ehdoe::opt::Objective one = [&f](const Vector& x) {
        double v = 0.0;
        f(x.data(), 1, &v);
        return v;
    };
    for (std::size_t s = 0; s < 18; ++s) {
        expect_start_golden(
            ehdoe::opt::nelder_mead(one, ehdoe::opt::Bounds::coded_cube(6), f.starts[s]),
            kS1Starts[s], s);
    }
}

TEST(DesignFlow, S1StartsRunTogetherMatchTheirLoneRuns) {
    // The same 18 starts in one nelder_mead_starts call: every start's
    // result is the pinned lone run's, and the first round asks for all 18
    // initial simplices in one block.
    const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, 20.0);
    DesignFlow flow(sc.design_space(), sc.make_simulation(), {});
    flow.run_ccd();
    const PenalisedPackets f(flow);
    std::vector<std::size_t> rounds;
    const ehdoe::opt::BlockObjective block = [&](const double* points, std::size_t n,
                                                 double* values) {
        rounds.push_back(n);
        f(points, n, values);
    };
    const std::vector<ehdoe::opt::OptResult> together =
        ehdoe::opt::nelder_mead_starts(block, ehdoe::opt::Bounds::coded_cube(6), f.starts);
    ASSERT_EQ(together.size(), 18u);
    std::size_t evaluations = 0;
    for (std::size_t s = 0; s < 18; ++s) {
        expect_start_golden(together[s], kS1Starts[s], s);
        evaluations += kS1Starts[s].evaluations;
    }
    ASSERT_FALSE(rounds.empty());
    EXPECT_EQ(rounds.front(), 18u * 7u);
    EXPECT_EQ(std::accumulate(rounds.begin(), rounds.end(), std::size_t{0}), evaluations);
    // Start 12 runs to max_iterations: one move per round, every round
    // has at least one point of it.
    EXPECT_GE(rounds.size(), 2001u);

    // A start whose whole first simplex lies on a plateau converges at
    // iteration 0, beside starts that go on; each still matches its lone run.
    const ehdoe::opt::Objective plateau = [](const Vector& x) {
        return std::max(0.0, x[0] + x[1] + x[2] - 1.0);
    };
    const ehdoe::opt::BlockObjective plateau_block = [&](const double* points, std::size_t n,
                                                         double* values) {
        for (std::size_t i = 0; i < n; ++i)
            values[i] = plateau(Vector(std::vector<double>(points + 3 * i, points + 3 * i + 3)));
    };
    const ehdoe::opt::Bounds cube3 = ehdoe::opt::Bounds::coded_cube(3);
    const std::vector<Vector> plateau_starts{Vector{0.9, 0.9, 0.9}, Vector{-0.9, -0.9, -0.9},
                                             Vector{0.9, 0.5, -0.2}};
    const std::vector<ehdoe::opt::OptResult> mixed =
        ehdoe::opt::nelder_mead_starts(plateau_block, cube3, plateau_starts);
    ASSERT_EQ(mixed.size(), 3u);
    EXPECT_EQ(mixed[1].iterations, 0u);
    EXPECT_EQ(mixed[1].evaluations, 4u);
    EXPECT_TRUE(mixed[1].converged);
    EXPECT_GT(mixed[0].iterations, 0u);
    for (std::size_t s = 0; s < 3; ++s) {
        const ehdoe::opt::OptResult alone =
            ehdoe::opt::nelder_mead(plateau, cube3, plateau_starts[s]);
        ASSERT_EQ(mixed[s].x.size(), 3u);
        for (std::size_t d = 0; d < 3; ++d)
            EXPECT_EQ(hex(mixed[s].x[d]), hex(alone.x[d])) << "start " << s << " coordinate " << d;
        EXPECT_EQ(hex(mixed[s].value), hex(alone.value)) << "start " << s;
        EXPECT_EQ(mixed[s].evaluations, alone.evaluations) << "start " << s;
        EXPECT_EQ(mixed[s].iterations, alone.iterations) << "start " << s;
        EXPECT_EQ(mixed[s].converged, alone.converged) << "start " << s;
    }
}
