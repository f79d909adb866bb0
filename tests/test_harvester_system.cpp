// Full-circuit assembly + fast/baseline engine cross-validation + power-flow
// model tests. This file carries the key physics claims of the repo.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "harvester/harvester_system.hpp"
#include "numerics/expm.hpp"
#include "numerics/stats.hpp"
#include "sim/transient.hpp"

using namespace ehdoe::harvester;
using ehdoe::num::Vector;

namespace {
constexpr double kTwoPi = 2.0 * M_PI;

std::function<double(double)> sine_accel(double amp, double f) {
    return [amp, f](double t) { return amp * std::sin(kTwoPi * f * t); };
}

std::string hex(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

std::vector<std::string> hex(const std::vector<double>& v) {
    std::vector<std::string> out;
    for (double d : v) out.push_back(hex(d));
    return out;
}

/// FNV-1a over the bit patterns of `m`, row-major: signed zeros and NaN
/// payloads count, so equal digests mean bitwise-equal matrices.
std::uint64_t bits_digest(std::uint64_t h, const ehdoe::num::Matrix& m) {
    for (std::size_t i = 0; i < m.rows() * m.cols(); ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, m.data() + i, sizeof bits);
        for (int k = 0; k < 8; ++k) {
            h ^= (bits >> (8 * k)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

std::size_t negative_zeros(const ehdoe::num::Matrix& m) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < m.rows() * m.cols(); ++i)
        if (m.data()[i] == 0.0 && std::signbit(m.data()[i])) ++n;
    return n;
}

/// The engine goldens' circuit: T1's 5-stage multiplier into 50 uF.
HarvesterCircuitParams golden_params(std::size_t stages = 5) {
    HarvesterCircuitParams p;
    p.storage_capacitance = 50e-6;
    p.multiplier.stages = stages;
    return p;
}

/// The loaded Newton goldens' circuit and load current: a 47 kOhm load
/// resistor beside the node's current draw.
HarvesterCircuitParams loaded_params(std::size_t stages) {
    HarvesterCircuitParams p = golden_params(stages);
    p.load_resistance = 47e3;
    return p;
}
double load_current(double t) { return 2e-4 * (1.0 + std::sin(40.0 * t)); }

struct NewtonRun {
    std::vector<double> samples;
    Vector state;
    ehdoe::sim::TransientStats stats;
};

/// The Newton goldens' run: the circuit at its natural 65 Hz, 0.6 m/s^2
/// from 0.5 V, 0.02 s at h = 5e-5, the output sampled every 40 steps.
NewtonRun newton_run(const HarvesterCircuitParams& p, std::function<double(double)> load,
                     int jacobian_reuse) {
    HarvesterCircuit c(p);
    ehdoe::sim::TransientOptions o;
    o.step = 5e-5;
    o.jacobian_reuse = jacobian_reuse;
    ehdoe::sim::TransientEngine eng(c.make_nonlinear_rhs(sine_accel(0.6, 65.0), std::move(load)),
                                    c.state_dim(), o);
    eng.set_state(c.initial_state(0.5));
    NewtonRun run;
    std::size_t steps = 0;
    eng.run(0.02, [&](double, const Vector& x) {
        if (++steps % 40 == 0) run.samples.push_back(c.output_voltage(x));
    });
    run.state = eng.state();
    run.stats = eng.stats();
    return run;
}

struct PwlRun {
    std::vector<double> samples;
    Vector state;
    ehdoe::sim::EngineStats stats;
};

/// The PWL goldens' run: 0.6 m/s^2 at 65 Hz from 0.5 V, 0.4 s at h = 2e-4,
/// tuned to 68 Hz and retuned to 65 Hz at 0.2 s (the cache is invalidated,
/// so every segment is discretized again), the output sampled every 200
/// steps.
PwlRun retuned_pwl_run(const HarvesterCircuitParams& p) {
    HarvesterCircuit c(p);
    c.set_resonant_frequency(68.0);
    const auto accel = sine_accel(0.6, 65.0);
    ehdoe::sim::PwlStateSpaceEngine eng(c.make_pwl_system(), {2e-4, true});
    eng.set_state(c.initial_state(0.5));
    PwlRun run;
    std::size_t steps = 0;
    const auto observe = [&](double, const Vector& x) {
        if (++steps % 200 == 0) run.samples.push_back(c.output_voltage(x));
    };
    eng.run(0.2, c.make_input(accel), observe);
    c.set_resonant_frequency(65.0);
    eng.invalidate_cache();
    eng.run(0.4, c.make_input(accel), observe);
    run.state = eng.state();
    run.stats = eng.stats();
    return run;
}

void expect_stats(const ehdoe::sim::TransientStats& s, const ehdoe::sim::TransientStats& want) {
    EXPECT_EQ(s.steps, want.steps);
    EXPECT_EQ(s.newton_iterations, want.newton_iterations);
    EXPECT_EQ(s.jacobian_builds, want.jacobian_builds);
    EXPECT_EQ(s.lu_factorizations, want.lu_factorizations);
    EXPECT_EQ(s.rhs_evaluations, want.rhs_evaluations);
    EXPECT_EQ(s.nonconverged_steps, want.nonconverged_steps);
}

void expect_stats(const ehdoe::sim::EngineStats& s, const ehdoe::sim::EngineStats& want) {
    EXPECT_EQ(s.steps, want.steps);
    EXPECT_EQ(s.segment_changes, want.segment_changes);
    EXPECT_EQ(s.cache_hits, want.cache_hits);
    EXPECT_EQ(s.cache_misses, want.cache_misses);
    EXPECT_EQ(s.retried_steps, want.retried_steps);
}
}  // namespace

TEST(Circuit, StateLayout) {
    HarvesterCircuit c{HarvesterCircuitParams{}};
    EXPECT_EQ(c.state_dim(), 3u + 11u);  // 5 stages: v0 + 5a + 5d
    EXPECT_EQ(c.idx_displacement(), 0u);
    EXPECT_EQ(c.idx_coil_current(), 2u);
    EXPECT_EQ(c.idx_output(), c.state_dim() - 1);
}

TEST(Circuit, InitialStatePrecharge) {
    HarvesterCircuit c{HarvesterCircuitParams{}};
    const Vector x = c.initial_state(2.5);
    EXPECT_NEAR(c.output_voltage(x), 2.5, 1e-12);
    EXPECT_DOUBLE_EQ(c.displacement(x), 0.0);
    // DC column voltages ascend proportionally.
    EXPECT_NEAR(x[c.idx_node(c.network().node_d(1))], 0.5, 1e-12);
}

TEST(Circuit, ResonantFrequencyRoundTrip) {
    HarvesterCircuit c{HarvesterCircuitParams{}};
    c.set_resonant_frequency(77.5);
    const double f_res = std::sqrt(c.spring_constant() / c.params().generator.mass) / (2.0 * M_PI);
    EXPECT_NEAR(f_res, 77.5, 1e-9);
    EXPECT_THROW(c.set_resonant_frequency(-1.0), std::invalid_argument);
}

TEST(Circuit, MultiplierBoostsAboveCoilAmplitude) {
    // Run the fast engine to (near) steady state: DC output must exceed the
    // peak AC EMF — the whole point of the multiplier.
    HarvesterCircuitParams p;
    p.storage_capacitance = 20e-6;  // small cap so it charges quickly
    HarvesterCircuit c(p);
    auto accel = sine_accel(0.6, p.generator.natural_freq_hz);
    ehdoe::sim::PwlEngineOptions opt;
    opt.step = 1e-4;
    ehdoe::sim::PwlStateSpaceEngine eng(c.make_pwl_system(), opt);
    eng.set_state(c.initial_state(0.0));
    double emf_peak = 0.0;
    eng.run(4.0, c.make_input(accel), [&](double, const Vector& x) {
        emf_peak = std::max(emf_peak, std::fabs(c.emf(x)));
    });
    EXPECT_GT(c.output_voltage(eng.state()), 1.5 * emf_peak);
}

TEST(Engines, FastAndBaselineAgree) {
    // The headline cross-validation: identical circuit, sine drive, compare
    // waveforms between the PWL state-space engine and the Newton-Raphson
    // trapezoidal baseline.
    HarvesterCircuitParams p;
    p.storage_capacitance = 50e-6;
    HarvesterCircuit c(p);
    const double f = p.generator.natural_freq_hz;
    auto accel = sine_accel(0.6, f);

    ehdoe::sim::PwlEngineOptions fo;
    fo.step = 5e-5;
    ehdoe::sim::PwlStateSpaceEngine fast(c.make_pwl_system(), fo);
    fast.set_state(c.initial_state(0.5));

    ehdoe::sim::TransientOptions so;
    so.step = 5e-5;
    ehdoe::sim::TransientEngine slow(c.make_nonlinear_rhs(accel), c.state_dim(), so);
    slow.set_state(c.initial_state(0.5));

    std::vector<double> v_fast, v_slow, z_fast, z_slow;
    fast.run(0.6, c.make_input(accel), [&](double, const Vector& x) {
        v_fast.push_back(c.output_voltage(x));
        z_fast.push_back(c.displacement(x));
    });
    slow.run(0.6, [&](double, const Vector& x) {
        v_slow.push_back(c.output_voltage(x));
        z_slow.push_back(c.displacement(x));
    });
    ASSERT_EQ(v_fast.size(), v_slow.size());

    // Relative RMS waveform difference below ~12% (PWL diode vs Shockley).
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < v_fast.size(); ++i) {
        num += (v_fast[i] - v_slow[i]) * (v_fast[i] - v_slow[i]);
        den += v_slow[i] * v_slow[i];
    }
    EXPECT_LT(std::sqrt(num / den), 0.12);
    // Mechanical displacement nearly identical (barely touched by diodes).
    double mnum = 0.0, mden = 0.0;
    for (std::size_t i = 0; i < z_fast.size(); ++i) {
        mnum += (z_fast[i] - z_slow[i]) * (z_fast[i] - z_slow[i]);
        mden += z_slow[i] * z_slow[i];
    }
    EXPECT_LT(std::sqrt(mnum / mden), 0.08);
}

TEST(Engines, PwlGoldenIsBitwiseStable) {
    // The PWL engine on the golden circuit (retuned_pwl_run): output
    // samples, the final state and every EngineStats field, pinned as
    // hexfloats: a faster step or discretization must not move a bit.
    const PwlRun run = retuned_pwl_run(golden_params());
    const std::vector<double>& samples = run.samples;
    EXPECT_EQ(hex(samples),
              hex({0x1.eeee13c06016cp-2, 0x1.e4f6cd303e292p-2, 0x1.e22f9a1abc11bp-2,
                   0x1.e0922a89f4f42p-2, 0x1.e148e2ae4085ep-2, 0x1.e0ce90c72176bp-2,
                   0x1.dfe68da0e2cf1p-2, 0x1.e729857ee1e1ap-2, 0x1.e6877b03e956bp-2,
                   0x1.f2e2ca07795a7p-2}));
    EXPECT_EQ(hex(run.state.std()),
              hex({0x1.4095dbd3a5a1fp-14, -0x1.a18af0b27f58ep-10, -0x1.7df04e3121db3p-17,
                   -0x1.3d254b44f47aep-6, 0x1.fd43d924e6b6p-6, 0x1.1457fffed507fp-3,
                   0x1.b67e6b8dde98fp-3, 0x1.246504cad9b38p-2, 0x1.723de0b25eb29p-2,
                   0x1.42d785611a5cdp-3, 0x1.0def1b2a3c459p-2, 0x1.603fc5faf9a7ep-2,
                   0x1.a70ffbc4e66ffp-2, 0x1.f2e2ca07795a7p-2}));
    expect_stats(run.stats, {2000, 517, 2416, 58, 474});
}

TEST(Engines, NewtonGoldenIsBitwiseStable) {
    // The Newton-Raphson engine on the golden circuit (newton_run) with the
    // default options: output samples, the final state and every
    // TransientStats field. Reusing work buffers must leave every RHS call,
    // iterate and counter as it was.
    const NewtonRun run = newton_run(golden_params(), {}, 1);
    const std::vector<double>& samples = run.samples;
    EXPECT_EQ(hex(samples),
              hex({0x1.f500e6e9b6bfp-2, 0x1.f4e0e13c893b2p-2, 0x1.f4c0a5e77c78bp-2,
                   0x1.f4a09a02ed954p-2, 0x1.f480e859ff1c3p-2, 0x1.f4615fa1d40cdp-2,
                   0x1.f441dc2608847p-2, 0x1.f4222a103c987p-2, 0x1.f400fbbb69954p-2,
                   0x1.f3db6ce0b1684p-2}));
    EXPECT_EQ(hex(run.state.std()),
              hex({-0x1.66c1da535cb32p-18, -0x1.71da1dd9d51dfp-8, -0x1.9720c8f3e23e5p-20,
                   -0x1.587facb35e726p-4, -0x1.373e6ad41ab98p-4, 0x1.ac8655caa9d02p-7,
                   0x1.8f5493b386753p-4, 0x1.739d663e3e97fp-3, 0x1.129626b4c59b4p-2,
                   0x1.f41c024134352p-4, 0x1.9909cfcf712e9p-3, 0x1.1e00bc78677fbp-2,
                   0x1.6f6949f49a7e9p-2, 0x1.f3db6ce0b1684p-2}));
    expect_stats(run.stats, {400, 1012, 612, 612, 9980, 0});
}

TEST(Engines, DiscretizationGoldenIsBitwiseStable) {
    // Ad/Bd of the golden circuit's ZOH discretization at h = 2e-4 for five
    // diode patterns (all off, all on, alternating both ways, the first four
    // on): a digest of every bit pattern, the count of -0.0 entries and two
    // readable entries.
    struct Golden {
        std::uint32_t seg;
        std::uint64_t digest;
        std::size_t negative_zeros;
        double ad00, bd10;
    };
    const Golden golden[] = {
        {0x000u, 0x297f461173ef8b3aull, 0, 0x1.fe4b842799d2cp-1, -0x1.a23419a310f74p-13},
        {0x3ffu, 0x0a9c4e94b44e4cbbull, 0, 0x1.fe4bb4f70ef63p-1, -0x1.a1ba39697416ep-13},
        {0x155u, 0x25cf6a47684d1b3cull, 0, 0x1.fe4bb4ccd94e1p-1, -0x1.a1ba982954ap-13},
        {0x2aau, 0x1278616c294cafa1ull, 0, 0x1.fe4bb4c3875d4p-1, -0x1.a1bab38cc7ba8p-13},
        {0x00fu, 0xd164cc5dc23f5bcfull, 0, 0x1.fe4bb4d75dffp-1, -0x1.a1ba7677ee372p-13},
    };
    HarvesterCircuit c(golden_params());
    const ehdoe::sim::PwlSystem sys = c.make_pwl_system();
    for (const Golden& g : golden) {
        SCOPED_TRACE("segment " + std::to_string(g.seg));
        ehdoe::num::Matrix a(sys.state_dim, sys.state_dim), b(sys.state_dim, sys.input_dim);
        sys.assemble(g.seg, a, b);
        const ehdoe::num::Discretized d = ehdoe::num::discretize_zoh(a, b, 2e-4);
        EXPECT_EQ(bits_digest(bits_digest(0xcbf29ce484222325ull, d.ad), d.bd), g.digest);
        EXPECT_EQ(negative_zeros(d.ad) + negative_zeros(d.bd), g.negative_zeros);
        EXPECT_EQ(hex(d.ad(0, 0)), hex(g.ad00));
        EXPECT_EQ(hex(d.bd(1, 0)), hex(g.bd10));
    }
}

TEST(Engines, LoadedNewtonGoldensAreBitwiseStable) {
    // newton_run under a 47 kOhm load and a load current, each Jacobian
    // reused for two iterations, at 1, 5 and 15 stages (state dimension 6,
    // 14 and 34): the load terms, a reused LU and each state size.
    struct Golden {
        std::size_t stages;
        std::vector<double> samples, state;
        ehdoe::sim::TransientStats stats;
    };
    const Golden golden[] = {
        {1,
         {0x1.f9b03ad4e78cbp-2, 0x1.f2edaf3d85d0bp-2, 0x1.ebb991575c397p-2, 0x1.e415d12f8c9abp-2,
          0x1.dc05179629838p-2, 0x1.d38ac1c2f966bp-2, 0x1.caaadbd2ce6a7p-2, 0x1.c16a1a2679a63p-2,
          0x1.b7cdd1ae34f9cp-2, 0x1.addbef2e1ff53p-2},
         {-0x1.9b09250ed665bp-18, -0x1.6f405aa471d8ep-8, -0x1.621c86b0be199p-24,
          -0x1.583c8225df513p-4, -0x1.57f3f1638ecccp-4, 0x1.addbef2e1ff53p-2},
         {400, 800, 400, 400, 3600, 0}},
        {5,
         {0x1.ece19ba9efbb1p-2, 0x1.e3f26fe0a0ac8p-2, 0x1.da6d74a1670cep-2, 0x1.d05587b5bdeddp-2,
          0x1.c5ae458d72542p-2, 0x1.ba7c155c94913p-2, 0x1.aec44471f6744p-2, 0x1.a28ce31e59e7fp-2,
          0x1.95dcca85fdd3fp-2, 0x1.88bb706f039d6p-2},
         {-0x1.673cff378e7fdp-18, -0x1.721b802121dd8p-8, -0x1.4518e5219b304p-22,
          -0x1.5ab10cf4553fp-4, -0x1.3a1536db4a5ap-4, 0x1.899dad4df4e8ap-7, 0x1.89298a24f468dp-4,
          0x1.6fb6c8ef394b1p-3, 0x1.1061654c69935p-2, 0x1.9e2308bfb87c3p-4, 0x1.4378205813ba7p-3,
          0x1.bbd7f24909416p-3, 0x1.19f44f656ebcbp-2, 0x1.88bb706f039d6p-2},
         {400, 1098, 536, 536, 9002, 0}},
        {15,
         {0x1.bd51745a340f8p-1, 0x1.fc325a3784c43p-1, 0x1.f6dcddca1b15ep-1, 0x1.f13d7bc11da71p-1,
          0x1.eb52adc89732cp-1, 0x1.e51f0b1d3ef6p-1, 0x1.dea5436199c44p-1, 0x1.d7e7ce6b968f4p-1,
          0x1.d0ea6269eac25p-1, 0x1.c9b147d9d50bp-1},
         {-0x1.6ced2d82fd6fdp-18, -0x1.5f826d1d69411p-8, 0x1.2bf3ed3f5e5c5p-23,
          -0x1.4a3f7a7b16eb1p-4, -0x1.2476f4604115cp-4, -0x1.9be6503628a8cp-7, 0x1.9217188be4cf3p-5,
          0x1.ce01759da95d8p-4, 0x1.6d2974f9d92e2p-3, 0x1.f662bae1e7ee7p-3, 0x1.410e2b03db491p-2,
          0x1.87e249d00bbb1p-2, 0x1.cf5cfdb10db56p-2, 0x1.0b908439e4173p-1, 0x1.2f614c74bc664p-1,
          0x1.52e3f73a61f8bp-1, 0x1.75d6f7ec094f5p-1, 0x1.97f32e6e1484cp-1, 0x1.b924f5d5d7de5p-1,
          0x1.9ac97415ee5b4p-5, 0x1.a9a1747e56826p-4, 0x1.4819e5cbbab11p-3, 0x1.bf925ff500a07p-3,
          0x1.1d32d1a53132dp-2, 0x1.5bf80031e730ap-2, 0x1.9bccdcf8e4503p-2, 0x1.dc62b66ce6069p-2,
          0x1.0eb0ad3e103b6p-1, 0x1.2f319c88e77dcp-1, 0x1.4f7a33a13ef29p-1, 0x1.6f4a8ee45464ap-1,
          0x1.8e62c487ce4f3p-1, 0x1.ac77db86a10a6p-1, 0x1.c9b147d9d50bp-1},
         {400, 2035, 996, 996, 36299, 0}},
    };
    for (const Golden& g : golden) {
        SCOPED_TRACE(std::to_string(g.stages) + " stages");
        const NewtonRun run = newton_run(loaded_params(g.stages), load_current, 2);
        EXPECT_EQ(hex(run.samples), hex(g.samples));
        EXPECT_EQ(hex(run.state.std()), hex(g.state));
        expect_stats(run.stats, g.stats);
    }
}

TEST(Engines, PwlGoldensAtOneAndFifteenStagesAreBitwiseStable) {
    // retuned_pwl_run at 1 and 15 stages (state dimension 6 and 34; 2 and
    // 30 diodes).
    struct Golden {
        std::size_t stages;
        std::vector<double> samples, state;
        ehdoe::sim::EngineStats stats;
    };
    const Golden golden[] = {
        {1,
         {0x1.fe1b5f646fb6p-2, 0x1.fc3889b488783p-2, 0x1.fa577f137828dp-2, 0x1.f8783acb03243p-2,
          0x1.f69abee0d29fbp-2, 0x1.f4bf0699c28fep-2, 0x1.f2e5106855a43p-2, 0x1.f10cde140d54cp-2,
          0x1.f0d6fd991d622p-2, 0x1.01c5fa9fa1c1fp-1},
         {0x1.a99f3a835d671p-14, -0x1.4cae37c48c609p-7, -0x1.525fd64bd2f14p-18,
          -0x1.33cf8fedf4763p-3, 0x1.387a93aa49849p-4, 0x1.01c5fa9fa1c1fp-1},
         {2000, 96, 2080, 5, 85}},
        {15,
         {0x1.f473f8a30e79ep-2, 0x1.ee75dfb06292ap-2, 0x1.ed0cc2aa5fecep-2, 0x1.eb28583ebabebp-2,
          0x1.e9f208a7cb457p-2, 0x1.e8781218c88c3p-2, 0x1.e6bf8ec158d5dp-2, 0x1.e8c2ecf6118d2p-2,
          0x1.e694cabc0e45ap-2, 0x1.eafc9c16942acp-2},
         {0x1.3dcca952ad3cbp-14, 0x1.f4beed84c0d38p-11, -0x1.e84abfe71c9e4p-16,
          0x1.aa1dfa6a9c1f1p-6, 0x1.2af87c827755dp-4, 0x1.4d8ff5903dce3p-3, 0x1.bacabac5ed063p-3,
          0x1.feffd86b2c95bp-3, 0x1.16bbd2aeb926p-2, 0x1.283c51d88363ep-2, 0x1.369f8758acf4cp-2,
          0x1.42cd986ac6148p-2, 0x1.4e2011756c8aap-2, 0x1.596644680794p-2, 0x1.64c60b915fb02p-2,
          0x1.700cd7342641bp-2, 0x1.7c76438ceae96p-2, 0x1.8b043348cded4p-2, 0x1.a5e4c17dd5739p-2,
          0x1.3f4625b5a1a3p-3, 0x1.fa088dcb92b87p-3, 0x1.34a17be781201p-2, 0x1.5665f9cb6ebb6p-2,
          0x1.6ce3b2e349019p-2, 0x1.7cb43892933b7p-2, 0x1.8885685ed6f6cp-2, 0x1.92504e2bf6b98p-2,
          0x1.9c3a22746a5dp-2, 0x1.a6222a21241e1p-2, 0x1.af7182e327534p-2, 0x1.b923c626350d3p-2,
          0x1.c3e2b05cb26f8p-2, 0x1.d136ded39bf5ep-2, 0x1.eafc9c16942acp-2},
         {2000, 1092, 2580, 379, 959}},
    };
    for (const Golden& g : golden) {
        SCOPED_TRACE(std::to_string(g.stages) + " stages");
        const PwlRun run = retuned_pwl_run(golden_params(g.stages));
        EXPECT_EQ(hex(run.samples), hex(g.samples));
        EXPECT_EQ(hex(run.state.std()), hex(g.state));
        expect_stats(run.stats, g.stats);
    }
}

TEST(Circuit, NonlinearRhsCallSequenceMatchesFreshClosuresBitwise) {
    // One closure called along a long seeded sequence must return, for each
    // call, the bits a fresh closure returns for that call alone: whatever
    // it keeps between calls, a result depends only on (t, x). The sequence
    // has fresh points, finite-difference columns (perturb one state, call,
    // restore) with a damped trial, repeated and alternating t, and sign
    // flips of zeros, under a load resistor and a load current. A copy taken
    // halfway must return the same bits as the original from then on.
    HarvesterCircuitParams p = golden_params();
    p.load_resistance = 47e3;
    HarvesterCircuit c(p);
    const auto accel = sine_accel(0.6, 65.0);
    const auto load = [](double t) { return 2e-4 * (1.0 + std::sin(40.0 * t)); };
    ehdoe::num::OdeRhs rhs = c.make_nonlinear_rhs(accel, load);
    ehdoe::num::OdeRhs copy;
    std::size_t calls = 0;
    const auto check = [&](double t, const Vector& x) {
        const std::vector<std::string> fresh = hex(c.make_nonlinear_rhs(accel, load)(t, x).std());
        EXPECT_EQ(hex(rhs(t, x).std()), fresh) << "call " << calls << " at t=" << hex(t);
        if (copy) {
            EXPECT_EQ(hex(copy(t, x).std()), fresh) << "copy, call " << calls;
        }
        ++calls;
    };

    ehdoe::num::Rng rng = ehdoe::num::make_rng(20);
    const std::size_t n = c.state_dim();
    Vector x(n);
    const auto random_point = [&] {
        x[0] = ehdoe::num::uniform(rng, -1e-4, 1e-4);
        x[1] = ehdoe::num::uniform(rng, -1e-2, 1e-2);
        x[2] = ehdoe::num::uniform(rng, -1e-3, 1e-3);
        for (std::size_t i = 3; i < n; ++i) x[i] = ehdoe::num::uniform(rng, -1.0, 2.0);
    };
    double t = 0.0;
    for (int round = 0; round < 96; ++round) {
        if (round == 48) copy = rhs;
        random_point();
        t += ehdoe::num::uniform(rng, 0.0, 1e-3);
        check(t, x);
        switch (round % 4) {
            case 0:  // one Jacobian build and a damped trial at one t
                for (std::size_t j = 0; j < n; ++j) {
                    const double xj = x[j];
                    x[j] = xj + 1e-7 * (1.0 + std::fabs(xj));
                    check(t, x);
                    x[j] = xj;
                }
                x[n - 1] -= 1e-3;
                check(t, x);
                break;
            case 1:  // the same call again, then one node moved
                check(t, x);
                check(t, x);
                x[4] += 0.3;
                check(t, x);
                break;
            case 2: {  // two times alternating, the state changing in between
                const double t2 = t + 5e-5;
                check(t2, x);
                check(t, x);
                x[3 + ehdoe::num::uniform_int(rng, 0, static_cast<int>(n) - 4)] = 0.55;
                check(t2, x);
                check(t, x);
                break;
            }
            default:  // zeros of both signs in t and in the node voltages
                x[5] = 0.0;
                check(0.0, x);
                x[5] = -0.0;
                check(0.0, x);
                check(-0.0, x);
                check(t, x);
                break;
        }
    }
    EXPECT_EQ(calls, 720u);
}

TEST(Circuit, NonlinearRhsColumnsMatchFreshPointCallsBitwise) {
    // The column call against a fresh closure's point call at each
    // y + dy_j e_j, as hexfloats, at 1, 5 and 15 stages under a load
    // resistor and a load current. The seeded points carry +-0, +-inf and
    // NaN entries and branch voltages past the 0.55 V knee. Before each
    // block call the closure's memo holds y's diodes (as in a Newton step),
    // another point's, or nothing; after it, a point call at y still
    // returns the fresh bits. A NaN matches any NaN: an x86 operation on
    // two NaNs returns its first operand's, and with three-operand (VEX)
    // encodings the compiler may order a sum's operands differently in
    // packed and scalar code, so a NaN's sign is not part of the contract.
    const auto accel = sine_accel(0.6, 65.0);
    const double inf = std::numeric_limits<double>::infinity();
    const double specials[] = {0.0, -0.0, inf, -inf, std::nan(""), 0.8, 1.7, -1.2};
    ehdoe::num::Rng rng = ehdoe::num::make_rng(36);
    for (const std::size_t stages : {1u, 5u, 15u}) {
        SCOPED_TRACE(std::to_string(stages) + " stages");
        const HarvesterCircuit c(loaded_params(stages));
        const std::size_t n = c.state_dim();
        const auto nan_as_one = [](const Vector& v) {
            std::vector<std::string> out = hex(v.std());
            for (std::size_t i = 0; i < v.size(); ++i)
                if (std::isnan(v[i])) out[i] = "nan";
            return out;
        };
        const auto fresh = [&](double t, const Vector& x) {
            return nan_as_one(c.make_nonlinear_rhs(accel, load_current)(t, x));
        };
        ehdoe::num::OdeRhs rhs = c.make_nonlinear_rhs(accel, load_current);
        ehdoe::num::Matrix out(n, n);
        for (int round = 0; round < 24; ++round) {
            Vector y(n), dy(n);
            y[0] = ehdoe::num::uniform(rng, -1e-4, 1e-4);
            y[1] = ehdoe::num::uniform(rng, -1e-2, 1e-2);
            y[2] = ehdoe::num::uniform(rng, -1e-3, 1e-3);
            for (std::size_t i = 3; i < n; ++i) y[i] = ehdoe::num::uniform(rng, -1.0, 2.0);
            if (round % 3 != 0) {  // two special entries anywhere in the state
                for (int k = 0; k < 2; ++k) {
                    const auto i = static_cast<std::size_t>(
                        ehdoe::num::uniform_int(rng, 0, static_cast<int>(n) - 1));
                    y[i] = specials[ehdoe::num::uniform_int(rng, 0, 7)];
                }
            }
            for (std::size_t j = 0; j < n; ++j) dy[j] = 1e-7 * (1.0 + std::fabs(y[j]));
            const double t = ehdoe::num::uniform(rng, 0.0, 0.1);
            if (round % 3 == 0) {
                rhs(t, y);  // the memo holds y
            } else if (round % 3 == 1) {
                rhs(t + 1e-3, Vector(n, 0.3));  // another point's
            } else {
                rhs = c.make_nonlinear_rhs(accel, load_current);  // an empty memo
            }
            rhs.columns(t, y, dy, out);
            for (std::size_t j = 0; j < n; ++j) {
                Vector yj = y;
                yj[j] = y[j] + dy[j];
                EXPECT_EQ(nan_as_one(out.col(j)), fresh(t, yj))
                    << "round " << round << ", column " << j;
            }
            const Vector at_y = c.make_nonlinear_rhs(accel, load_current)(t, y);
            EXPECT_EQ(hex(rhs(t, y).std()), hex(at_y.std())) << "round " << round;
        }
    }
}

TEST(Circuit, NonlinearRhsSamplesExcitationOncePerDistinctTime) {
    // accel and load_current are functions of t, so the closure samples them
    // only when t's bits differ from the previous call's: once per step
    // time in a Newton run, however many Jacobian columns and damped trials
    // share that time.
    HarvesterCircuit c(golden_params());
    std::size_t accel_calls = 0, load_calls = 0;
    ehdoe::num::OdeRhs rhs = c.make_nonlinear_rhs(
        [&](double t) {
            ++accel_calls;
            return 0.6 * std::sin(kTwoPi * 65.0 * t);
        },
        [&](double t) {
            ++load_calls;
            return 2e-4 * (1.0 + std::sin(40.0 * t));
        });
    Vector x = c.initial_state(0.5);
    rhs(0.0, x);
    rhs(0.0, x);
    x[5] = 0.3;
    rhs(0.0, x);
    EXPECT_EQ(accel_calls, 1u);
    rhs(1e-4, x);
    rhs(0.0, x);   // alternating times each sample again
    rhs(-0.0, x);  // so do distinct bits of equal value
    EXPECT_EQ(accel_calls, 4u);
    EXPECT_EQ(load_calls, 4u);

    accel_calls = load_calls = 0;
    ehdoe::sim::TransientOptions o;
    o.step = 5e-5;
    ehdoe::sim::TransientEngine eng(std::move(rhs), c.state_dim(), o);
    eng.set_state(c.initial_state(0.5));
    eng.set_time(1e-3);
    eng.run(1e-3 + 100 * o.step);
    EXPECT_EQ(eng.stats().steps, 100u);
    EXPECT_GT(eng.stats().rhs_evaluations, 100u * c.state_dim());
    EXPECT_EQ(accel_calls, 101u);  // the start time and each step's end
    EXPECT_EQ(load_calls, 101u);
}

TEST(Engines, FastEngineMuchCheaper) {
    HarvesterCircuitParams p;
    HarvesterCircuit c(p);
    auto accel = sine_accel(0.6, 65.0);

    ehdoe::sim::PwlStateSpaceEngine fast(c.make_pwl_system(), {1e-4, true});
    fast.set_state(c.initial_state(0.0));
    fast.run(0.5, c.make_input(accel));

    ehdoe::sim::TransientEngine slow(c.make_nonlinear_rhs(accel), c.state_dim(), {1e-4, 1});
    slow.set_state(c.initial_state(0.0));
    slow.run(0.5);

    // Work proxy: the baseline runs thousands of RHS evaluations + LU
    // factorizations; the fast engine runs a handful of expm builds.
    EXPECT_LT(fast.stats().cache_misses, 100u);
    EXPECT_GT(slow.stats().rhs_evaluations, 50u * fast.stats().cache_misses);
}

TEST(Circuit, LoadResistorDrawsPower) {
    HarvesterCircuitParams p;
    p.storage_capacitance = 20e-6;
    p.load_resistance = 100e3;
    HarvesterCircuit c(p);
    auto accel = sine_accel(0.6, 65.0);
    ehdoe::sim::PwlStateSpaceEngine eng(c.make_pwl_system(), {1e-4, true});
    eng.set_state(c.initial_state(0.0));
    eng.run(3.0, c.make_input(accel));
    EXPECT_GT(c.output_voltage(eng.state()), 0.0);
    // Loaded output must sit below the unloaded one.
    HarvesterCircuitParams pu = p;
    pu.load_resistance = 0.0;
    HarvesterCircuit cu(pu);
    ehdoe::sim::PwlStateSpaceEngine engu(cu.make_pwl_system(), {1e-4, true});
    engu.set_state(cu.initial_state(0.0));
    engu.run(3.0, cu.make_input(accel));
    EXPECT_LT(c.output_voltage(eng.state()), cu.output_voltage(engu.state()));
}

TEST(PowerFlow, PeaksWhenTuned) {
    PowerFlowModel pf({MicrogeneratorParams{}, MultiplierParams{}, 0.85, -1.0});
    const double tuned = pf.power(72.0, 72.0, 0.6, 2.6);
    const double detuned = pf.power(72.0, 78.0, 0.6, 2.6);
    EXPECT_GT(tuned, 0.0);
    EXPECT_GT(tuned, 3.0 * detuned);
}

TEST(PowerFlow, ZeroBeyondOpenCircuitVoltage) {
    PowerFlowModel pf({MicrogeneratorParams{}, MultiplierParams{}, 0.85, -1.0});
    const double voc = pf.operating_point(72.0, 72.0, 0.6).v_oc;
    EXPECT_GT(voc, 3.0);
    EXPECT_DOUBLE_EQ(pf.power(72.0, 72.0, 0.6, voc + 0.1), 0.0);
    EXPECT_DOUBLE_EQ(pf.power(72.0, 72.0, 0.6, voc - 1e-6) > 0.0, true);
}

TEST(PowerFlow, ZeroWhenTooWeakForDiodes) {
    // Tiny excitation: peak below one diode drop -> no charging at all.
    PowerFlowModel pf({MicrogeneratorParams{}, MultiplierParams{}, 0.85, -1.0});
    EXPECT_DOUBLE_EQ(pf.power(72.0, 85.0, 0.001, 2.6), 0.0);
}

TEST(PowerFlow, MonotoneInStorageVoltageBelowMatched) {
    PowerFlowModel pf({MicrogeneratorParams{}, MultiplierParams{}, 0.85, -1.0});
    const double voc = pf.operating_point(72.0, 72.0, 0.6).v_oc;
    double prev = 0.0;
    for (double v = 0.5; v < voc / 2.0; v += 0.5) {
        const double p = pf.power(72.0, 72.0, 0.6, v);
        EXPECT_GE(p, prev);
        prev = p;
    }
}

TEST(PowerFlow, RejectsInvalidArguments) {
    PowerFlowModel pf({MicrogeneratorParams{}, MultiplierParams{}, 0.85, -1.0});
    const double nan = std::nan(""), inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(pf.operating_point(72.0, 72.0, -0.1), std::invalid_argument);
    EXPECT_THROW(pf.operating_point(0.0, 72.0, 0.6), std::invalid_argument);
    EXPECT_THROW(pf.power(72.0, 72.0, 0.6, -1.0), std::invalid_argument);
    // A NaN or 0 Hz resonance gives no tuned spring, so the solve used the
    // untuned 65 Hz one, and -72 Hz gave the 72 Hz point.
    for (const double f_res : {nan, 0.0, -72.0, inf}) {
        EXPECT_THROW(pf.operating_point(72.0, f_res, 1.0), std::invalid_argument) << f_res;
        EXPECT_THROW(pf.power(72.0, f_res, 1.0, 2.6), std::invalid_argument) << f_res;
    }
    // An infinite excitation or amplitude passed the old checks and gave
    // NaN power.
    EXPECT_THROW(pf.operating_point(inf, 72.0, 1.0), std::invalid_argument);
    EXPECT_THROW(pf.operating_point(nan, 72.0, 1.0), std::invalid_argument);
    EXPECT_THROW(pf.operating_point(72.0, 72.0, inf), std::invalid_argument);
    EXPECT_THROW(pf.operating_point(72.0, 72.0, nan), std::invalid_argument);
    // A NaN equivalent load ran at the optimal load, and +inf made every
    // operating point NaN; 0 and below still choose the optimum.
    for (const double load : {nan, inf, -inf}) {
        EXPECT_THROW(PowerFlowModel({MicrogeneratorParams{}, MultiplierParams{}, 0.85, load}),
                     std::invalid_argument)
            << load;
    }
    const double v_oc = pf.operating_point(72.0, 72.0, 0.6).v_oc;
    EXPECT_EQ(PowerFlowModel({MicrogeneratorParams{}, MultiplierParams{}, 0.85, 0.0})
                  .operating_point(72.0, 72.0, 0.6).v_oc,
              v_oc);
    EXPECT_NE(PowerFlowModel({MicrogeneratorParams{}, MultiplierParams{}, 0.85, 5000.0})
                  .operating_point(72.0, 72.0, 0.6).v_oc,
              v_oc);
}

TEST(PowerFlow, OperatingPointEdgeCasesAreBitwiseStable) {
    // The node's default model at a tuned and a detuned tone, a dead tone
    // (every field +0), a resonance whose tuned spring m w w underflows to
    // 0, so the solve uses the untuned 65 Hz spring and gives the bits of
    // (65, 65, 1.13), and an amplitude whose matched power overflows.
    struct Case {
        double f_exc, f_res, amp;
        double v_oc, p_matched, r_out;
    };
    const double inf = std::numeric_limits<double>::infinity();
    const Case cases[] = {
        {72.0, 72.0, 1.13, 0x1.666cfa7295254p+4, 0x1.c24b6b19a248p-13, 0x1.1d4cc291b00f3p+19},
        {74.0, 73.5, 1.7, 0x1.879c80ac32237p+4, 0x1.0837159dc0af6p-12, 0x1.223789a08f178p+19},
        {72.0, 72.0, 1e-9, 0x0p+0, 0x0p+0, 0x0p+0},
        {65.0, 1e-170, 1.13, 0x1.666cfe902f527p+4, 0x1.c24b74672a0d4p-13, 0x1.1d4cc33a146ecp+19},
        {65.0, 65.0, 1.13, 0x1.666cfe902f527p+4, 0x1.c24b74672a0d4p-13, 0x1.1d4cc33a146ecp+19},
        {72.0, 72.0, 1e300, 0x1.073f330758a01p+1001, inf, std::nan("")},
    };
    // The NaN's sign is the platform's default NaN's.
    const auto same = [](double got, double want) {
        return std::isnan(want) ? std::isnan(got) : hex(got) == hex(want);
    };
    const auto expect_op = [&](const PowerFlowModel::OperatingPoint& op, const Case& c) {
        EXPECT_EQ(hex(op.v_oc), hex(c.v_oc));
        EXPECT_EQ(hex(op.p_matched), hex(c.p_matched));
        EXPECT_TRUE(same(op.r_out, c.r_out)) << hex(op.r_out);
    };
    const PowerFlowModel pf(PowerFlowModel::Params{});
    // The two-lane solve pairs each case, in either lane, with every case
    // of the same model and of one that differs in mass, coupling,
    // equivalent load and efficiency.
    PowerFlowModel::Params other_params;
    other_params.generator.mass = 9.5e-3;
    other_params.generator.coupling = 12.0;
    other_params.equivalent_load = 5000.0;
    other_params.converter_efficiency = 0.75;
    const PowerFlowModel other(other_params);
    for (const Case& c : cases) {
        SCOPED_TRACE(hex(c.f_exc) + " " + hex(c.f_res) + " " + hex(c.amp));
        expect_op(pf.operating_point(c.f_exc, c.f_res, c.amp), c);
        const PowerFlowModel::Conditions at{c.f_exc, c.f_res, c.amp};
        for (const Case& d : cases) {
            const PowerFlowModel::Conditions beside_at{d.f_exc, d.f_res, d.amp};
            for (const PowerFlowModel* beside : {&pf, &other}) {
                SCOPED_TRACE(hex(d.f_exc) + " " + hex(d.f_res) + " " + hex(d.amp) +
                             (beside == &pf ? " same model" : " other model"));
                PowerFlowModel::OperatingPoint low[2], high[2];
                PowerFlowModel::solve_pair(pf, at, low[0], *beside, beside_at, low[1]);
                PowerFlowModel::solve_pair(*beside, beside_at, high[0], pf, at, high[1]);
                expect_op(low[0], c);
                expect_op(high[1], c);
                const PowerFlowModel::OperatingPoint alone = beside->solve(beside_at);
                for (const PowerFlowModel::OperatingPoint& op : {low[1], high[0]}) {
                    EXPECT_EQ(hex(op.v_oc), hex(alone.v_oc));
                    EXPECT_EQ(hex(op.p_matched), hex(alone.p_matched));
                    EXPECT_TRUE(same(op.r_out, alone.r_out)) << hex(op.r_out);
                }
            }
        }
    }
}

TEST(PowerFlow, AgreesWithCircuitWithinFactor) {
    // Cross-validation of the fast model against the circuit simulation:
    // charge a storage cap near v_store and compare average charging power.
    HarvesterCircuitParams p;
    p.storage_capacitance = 200e-6;
    HarvesterCircuit c(p);
    const double f = 72.0;
    c.set_resonant_frequency(f);
    auto accel = sine_accel(0.6, f);
    ehdoe::sim::PwlStateSpaceEngine eng(c.make_pwl_system(), {1e-4, true});
    const double v0 = 2.4;
    eng.set_state(c.initial_state(v0));
    // Power *delivered by the multiplier* = storage energy gain + leakage.
    double leak_e = 0.0;
    eng.run(4.0, c.make_input(accel), [&](double, const Vector& x) {
        const double v = c.output_voltage(x);
        leak_e += v * v / p.storage_leakage * 1e-4;
    });
    const double v1 = c.output_voltage(eng.state());
    const double p_circuit =
        (0.5 * p.storage_capacitance * (v1 * v1 - v0 * v0) + leak_e) / 4.0;

    PowerFlowModel pf({p.generator, p.multiplier, 0.6, -1.0});
    const double p_model = pf.power(f, f, 0.6, 0.5 * (v0 + v1));
    ASSERT_GT(p_circuit, 0.0);
    ASSERT_GT(p_model, 0.0);
    // The calibrated fast model tracks the circuit within a factor of ~3
    // (part of the residual gap is the CW ladder's pump-up transient).
    const double ratio = p_model / p_circuit;
    EXPECT_GT(ratio, 1.0 / 3.0);
    EXPECT_LT(ratio, 3.0);
}

TEST(CircuitParams, Validation) {
    HarvesterCircuitParams p;
    p.storage_leakage = 0.0;
    EXPECT_THROW(HarvesterCircuit{p}, std::invalid_argument);
    HarvesterCircuit good{HarvesterCircuitParams{}};
    EXPECT_THROW(good.make_nonlinear_rhs(nullptr), std::invalid_argument);
    EXPECT_THROW(good.make_input(nullptr), std::invalid_argument);
}
