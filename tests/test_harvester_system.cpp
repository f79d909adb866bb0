// Full-circuit assembly + fast/baseline engine cross-validation + power-flow
// model tests. This file carries the key physics claims of the repo.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
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
HarvesterCircuitParams golden_params() {
    HarvesterCircuitParams p;
    p.storage_capacitance = 50e-6;
    return p;
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
    EXPECT_NEAR(c.resonant_frequency(), 77.5, 1e-9);
    EXPECT_THROW(c.set_spring_constant(-1.0), std::invalid_argument);
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
    // The PWL engine on the golden circuit, 0.6 m/s^2 at 65 Hz, 0.4 s at
    // h = 2e-4, tuned to 68 Hz and retuned to 65 Hz at 0.2 s (the cache is
    // invalidated, so every segment is discretized again). Output samples
    // every 200 steps, the final state and every EngineStats field, pinned
    // as hexfloats: a faster step or discretization must not move a bit.
    HarvesterCircuit c(golden_params());
    c.set_resonant_frequency(68.0);
    const auto accel = sine_accel(0.6, 65.0);
    ehdoe::sim::PwlStateSpaceEngine eng(c.make_pwl_system(), {2e-4, true, 4});
    eng.set_state(c.initial_state(0.5));
    std::vector<double> samples;
    std::size_t steps = 0;
    const auto observe = [&](double, const Vector& x) {
        if (++steps % 200 == 0) samples.push_back(c.output_voltage(x));
    };
    eng.run(0.2, c.make_input(accel), observe);
    c.set_resonant_frequency(65.0);
    eng.invalidate_cache();
    eng.run(0.4, c.make_input(accel), observe);

    EXPECT_EQ(hex(samples),
              hex({0x1.eeee13c06016cp-2, 0x1.e4f6cd303e292p-2, 0x1.e22f9a1abc11bp-2,
                   0x1.e0922a89f4f42p-2, 0x1.e148e2ae4085ep-2, 0x1.e0ce90c72176bp-2,
                   0x1.dfe68da0e2cf1p-2, 0x1.e729857ee1e1ap-2, 0x1.e6877b03e956bp-2,
                   0x1.f2e2ca07795a7p-2}));
    EXPECT_EQ(hex(eng.state().std()),
              hex({0x1.4095dbd3a5a1fp-14, -0x1.a18af0b27f58ep-10, -0x1.7df04e3121db3p-17,
                   -0x1.3d254b44f47aep-6, 0x1.fd43d924e6b6p-6, 0x1.1457fffed507fp-3,
                   0x1.b67e6b8dde98fp-3, 0x1.246504cad9b38p-2, 0x1.723de0b25eb29p-2,
                   0x1.42d785611a5cdp-3, 0x1.0def1b2a3c459p-2, 0x1.603fc5faf9a7ep-2,
                   0x1.a70ffbc4e66ffp-2, 0x1.f2e2ca07795a7p-2}));
    const ehdoe::sim::EngineStats& s = eng.stats();
    EXPECT_EQ(s.steps, 2000u);
    EXPECT_EQ(s.segment_changes, 517u);
    EXPECT_EQ(s.cache_hits, 2416u);
    EXPECT_EQ(s.cache_misses, 58u);
    EXPECT_EQ(s.retried_steps, 474u);
}

TEST(Engines, NewtonGoldenIsBitwiseStable) {
    // The Newton-Raphson engine on the golden circuit at its natural 65 Hz,
    // 0.02 s at h = 5e-5 with the default options: output samples every 40
    // steps, the final state and every TransientStats field. Reusing work
    // buffers must leave every RHS call, iterate and counter as it was.
    HarvesterCircuit c(golden_params());
    ehdoe::sim::TransientOptions o;
    o.step = 5e-5;
    ehdoe::sim::TransientEngine eng(c.make_nonlinear_rhs(sine_accel(0.6, 65.0)), c.state_dim(), o);
    eng.set_state(c.initial_state(0.5));
    std::vector<double> samples;
    std::size_t steps = 0;
    eng.run(0.02, [&](double, const Vector& x) {
        if (++steps % 40 == 0) samples.push_back(c.output_voltage(x));
    });

    EXPECT_EQ(hex(samples),
              hex({0x1.f500e6e9b6bfp-2, 0x1.f4e0e13c893b2p-2, 0x1.f4c0a5e77c78bp-2,
                   0x1.f4a09a02ed954p-2, 0x1.f480e859ff1c3p-2, 0x1.f4615fa1d40cdp-2,
                   0x1.f441dc2608847p-2, 0x1.f4222a103c987p-2, 0x1.f400fbbb69954p-2,
                   0x1.f3db6ce0b1684p-2}));
    EXPECT_EQ(hex(eng.state().std()),
              hex({-0x1.66c1da535cb32p-18, -0x1.71da1dd9d51dfp-8, -0x1.9720c8f3e23e5p-20,
                   -0x1.587facb35e726p-4, -0x1.373e6ad41ab98p-4, 0x1.ac8655caa9d02p-7,
                   0x1.8f5493b386753p-4, 0x1.739d663e3e97fp-3, 0x1.129626b4c59b4p-2,
                   0x1.f41c024134352p-4, 0x1.9909cfcf712e9p-3, 0x1.1e00bc78677fbp-2,
                   0x1.6f6949f49a7e9p-2, 0x1.f3db6ce0b1684p-2}));
    const ehdoe::sim::TransientStats& s = eng.stats();
    EXPECT_EQ(s.steps, 400u);
    EXPECT_EQ(s.newton_iterations, 1012u);
    EXPECT_EQ(s.jacobian_builds, 612u);
    EXPECT_EQ(s.lu_factorizations, 612u);
    EXPECT_EQ(s.rhs_evaluations, 9980u);
    EXPECT_EQ(s.nonconverged_steps, 0u);
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

    ehdoe::sim::PwlStateSpaceEngine fast(c.make_pwl_system(), {1e-4, true, 4});
    fast.set_state(c.initial_state(0.0));
    fast.run(0.5, c.make_input(accel));

    ehdoe::sim::TransientEngine slow(c.make_nonlinear_rhs(accel), c.state_dim(),
                                     {1e-4, 1e-9, 30, 1e-7, 1});
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
    ehdoe::sim::PwlStateSpaceEngine eng(c.make_pwl_system(), {1e-4, true, 4});
    eng.set_state(c.initial_state(0.0));
    eng.run(3.0, c.make_input(accel));
    EXPECT_GT(c.load_power(eng.state()), 0.0);
    // Loaded output must sit below the unloaded one.
    HarvesterCircuitParams pu = p;
    pu.load_resistance = 0.0;
    HarvesterCircuit cu(pu);
    ehdoe::sim::PwlStateSpaceEngine engu(cu.make_pwl_system(), {1e-4, true, 4});
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
    const double voc = pf.open_circuit_voltage(72.0, 72.0, 0.6);
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
    const double voc = pf.open_circuit_voltage(72.0, 72.0, 0.6);
    double prev = 0.0;
    for (double v = 0.5; v < voc / 2.0; v += 0.5) {
        const double p = pf.power(72.0, 72.0, 0.6, v);
        EXPECT_GE(p, prev);
        prev = p;
    }
}

TEST(PowerFlow, CalibrationScalesModel) {
    PowerFlowModel pf({MicrogeneratorParams{}, MultiplierParams{}, 0.5, -1.0});
    const double before = pf.power(72.0, 72.0, 0.6, 2.6);
    const double scale = pf.calibrate(72.0, 72.0, 0.6, 2.6, before * 1.4);
    EXPECT_NEAR(scale, 1.4, 1e-9);
    EXPECT_NEAR(pf.power(72.0, 72.0, 0.6, 2.6), before * 1.4, before * 1e-6);
    EXPECT_THROW(pf.calibrate(72.0, 72.0, 0.6, 2.6, -1.0), std::invalid_argument);
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
    EXPECT_THROW(pf.open_circuit_voltage(72.0, 72.0, inf), std::invalid_argument);
    // A NaN equivalent load ran at the optimal load, and +inf made every
    // operating point NaN; 0 and below still choose the optimum.
    for (const double load : {nan, inf, -inf}) {
        EXPECT_THROW(PowerFlowModel({MicrogeneratorParams{}, MultiplierParams{}, 0.85, load}),
                     std::invalid_argument)
            << load;
    }
    const double v_oc = pf.open_circuit_voltage(72.0, 72.0, 0.6);
    EXPECT_EQ(PowerFlowModel({MicrogeneratorParams{}, MultiplierParams{}, 0.85, 0.0})
                  .open_circuit_voltage(72.0, 72.0, 0.6),
              v_oc);
    EXPECT_NE(PowerFlowModel({MicrogeneratorParams{}, MultiplierParams{}, 0.85, 5000.0})
                  .open_circuit_voltage(72.0, 72.0, 0.6),
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
    ehdoe::sim::PwlStateSpaceEngine eng(c.make_pwl_system(), {1e-4, true, 4});
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
