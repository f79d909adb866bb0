// Microgenerator analytic steady-state tests.
#include <gtest/gtest.h>

#include <cmath>

#include "harvester/microgenerator.hpp"

using namespace ehdoe::harvester;

namespace {

// The solve PowerFlowModel runs, for one device at load `r_load`.
SteadyState response(const MicrogeneratorParams& p, double accel, double excitation_hz,
                     double r_load, double spring_k = -1.0) {
    return solve_steady_state(steady_state_terms(p, r_load), accel, excitation_hz, spring_k);
}

}  // namespace

TEST(Params, DerivedQuantities) {
    MicrogeneratorParams p;
    p.mass = 1e-2;
    p.natural_freq_hz = 50.0;
    p.mechanical_q = 100.0;
    const double w0 = 2.0 * M_PI * 50.0;
    EXPECT_NEAR(p.omega0(), w0, 1e-9);
    EXPECT_NEAR(p.spring_constant(), 1e-2 * w0 * w0, 1e-6);
    EXPECT_NEAR(p.parasitic_damping(), 1e-2 * w0 / 100.0, 1e-12);
}

TEST(Params, Validation) {
    MicrogeneratorParams p;
    p.mass = -1.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = MicrogeneratorParams{};
    p.mechanical_q = 0.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = MicrogeneratorParams{};
    EXPECT_NO_THROW(p.validate());
}

TEST(SteadyState, PeaksAtResonance) {
    MicrogeneratorParams p;
    const double rl = optimal_load_resistance(p);
    const double p_res = response(p, 0.6, p.natural_freq_hz, rl).power_load;
    const double p_below = response(p, 0.6, p.natural_freq_hz - 3.0, rl).power_load;
    const double p_above = response(p, 0.6, p.natural_freq_hz + 3.0, rl).power_load;
    EXPECT_GT(p_res, 5.0 * p_below);
    EXPECT_GT(p_res, 5.0 * p_above);
}

TEST(SteadyState, PowerScalesWithAccelSquared) {
    MicrogeneratorParams p;
    const double rl = optimal_load_resistance(p);
    const double p1 = response(p, 0.3, p.natural_freq_hz, rl).power_load;
    const double p2 = response(p, 0.6, p.natural_freq_hz, rl).power_load;
    EXPECT_NEAR(p2 / p1, 4.0, 1e-9);
}

TEST(SteadyState, OptimalLoadBeatsNeighbours) {
    MicrogeneratorParams p;
    const double rl = optimal_load_resistance(p);
    const double popt = response(p, 0.6, p.natural_freq_hz, rl).power_load;
    EXPECT_GE(popt, response(p, 0.6, p.natural_freq_hz, rl * 0.5).power_load);
    EXPECT_GE(popt, response(p, 0.6, p.natural_freq_hz, rl * 2.0).power_load);
}

TEST(SteadyState, MatchedDampingAtOptimalLoad) {
    // At R_L_opt (resonance, small coil reactance) c_e ~ c_p.
    MicrogeneratorParams p;
    p.coil_inductance = 0.0;
    const SteadyState s = response(p, 0.6, p.natural_freq_hz, optimal_load_resistance(p));
    // With R_c > 0 the exact load optimum sits slightly off c_e == c_p.
    EXPECT_NEAR(s.electrical_damping, p.parasitic_damping(), 0.12 * p.parasitic_damping());
}

TEST(SteadyState, TunedSpringShiftsPeak) {
    MicrogeneratorParams p;
    const double rl = optimal_load_resistance(p);
    // Tune the device to 80 Hz: response at 80 Hz must now dominate 65 Hz.
    const double k80 = p.mass * std::pow(2.0 * M_PI * 80.0, 2);
    const double at80 = response(p, 0.6, 80.0, rl, k80).power_load;
    const double at65 = response(p, 0.6, 65.0, rl, k80).power_load;
    EXPECT_GT(at80, 5.0 * at65);
}

TEST(SteadyState, EnergyAccounting) {
    // Input mechanical power = load + parasitic at steady state (first-order
    // model): P_in = 1/2 * m * a * velocity (force in phase at resonance).
    MicrogeneratorParams p;
    p.coil_inductance = 0.0;
    const SteadyState s = response(p, 0.6, p.natural_freq_hz, optimal_load_resistance(p));
    const double p_in = 0.5 * p.mass * 0.6 * s.velocity_amplitude;
    EXPECT_NEAR(p_in, s.power_load + s.power_parasitic, 0.02 * p_in);
}

TEST(SteadyState, EmfIsCouplingTimesVelocity) {
    MicrogeneratorParams p;
    const SteadyState s = response(p, 0.5, 70.0, 1000.0);
    EXPECT_NEAR(s.emf_amplitude, p.coupling * s.velocity_amplitude, 1e-12);
}

TEST(MaxPower, PositiveAndMonotonicInQ) {
    // The power ceiling: load power at resonance into the optimal load.
    const auto max_power = [](const MicrogeneratorParams& p) {
        return response(p, 0.6, p.natural_freq_hz, optimal_load_resistance(p)).power_load;
    };
    MicrogeneratorParams lo;
    lo.mechanical_q = 50.0;
    MicrogeneratorParams hi;
    hi.mechanical_q = 200.0;
    EXPECT_GT(max_power(lo), 0.0);
    EXPECT_GT(max_power(hi), max_power(lo));
}

// Property: bandwidth shrinks as Q grows.
class BandwidthP : public ::testing::TestWithParam<double> {};

TEST_P(BandwidthP, HalfPowerBandwidthTracksQ) {
    MicrogeneratorParams p;
    p.mechanical_q = GetParam();
    p.coil_inductance = 0.0;
    const double rl = optimal_load_resistance(p);
    const double f0 = p.natural_freq_hz;
    const double p0 = response(p, 0.6, f0, rl).power_load;
    // Effective Q with matched electrical damping is ~ Q/2; half-power at
    // roughly f0 * (1 +- 1/(2 Q_eff)).
    const double q_eff = GetParam() / 2.0;
    const double f_half = f0 * (1.0 + 0.5 / q_eff);
    const double p_half = response(p, 0.6, f_half, rl).power_load;
    EXPECT_NEAR(p_half / p0, 0.5, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Qs, BandwidthP, ::testing::Values(60.0, 120.0, 240.0));
