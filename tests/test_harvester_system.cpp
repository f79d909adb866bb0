// Full-circuit assembly + fast/baseline engine cross-validation + power-flow
// model tests. This file carries the key physics claims of the repo.
#include <gtest/gtest.h>

#include <cmath>

#include "harvester/harvester_system.hpp"
#include "sim/transient.hpp"

using namespace ehdoe::harvester;
using ehdoe::num::Vector;

namespace {
constexpr double kTwoPi = 2.0 * M_PI;

std::function<double(double)> sine_accel(double amp, double f) {
    return [amp, f](double t) { return amp * std::sin(kTwoPi * f * t); };
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
    EXPECT_THROW(pf.operating_point(72.0, 72.0, -0.1), std::invalid_argument);
    EXPECT_THROW(pf.operating_point(0.0, 72.0, 0.6), std::invalid_argument);
    EXPECT_THROW(pf.power(72.0, 72.0, 0.6, -1.0), std::invalid_argument);
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
