// Vibration source tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "harvester/vibration.hpp"

using namespace ehdoe::harvester;

namespace {

std::vector<std::string> hex(const std::vector<double>& v) {
    std::vector<std::string> out;
    for (double d : v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%a", d);
        out.push_back(buf);
    }
    return out;
}

}  // namespace

TEST(Sine, FrequencyAndRms) {
    SineVibration s(2.0, 50.0);
    EXPECT_DOUBLE_EQ(s.dominant_frequency(123.0), 50.0);
    EXPECT_NEAR(s.rms_amplitude(), 2.0 / M_SQRT2, 1e-12);
}

TEST(Sine, Validation) {
    EXPECT_THROW(SineVibration(-1.0, 50.0), std::invalid_argument);
    EXPECT_THROW(SineVibration(1.0, 0.0), std::invalid_argument);
}

TEST(MultiTone, DominantIsLargestAmplitude) {
    MultiToneVibration m({{0.2, 30.0}, {0.9, 60.0}, {0.3, 90.0}});
    EXPECT_DOUBLE_EQ(m.dominant_frequency(0.0), 60.0);
    EXPECT_NEAR(m.rms_amplitude(), std::sqrt((0.04 + 0.81 + 0.09) / 2.0), 1e-12);
}

TEST(MultiTone, Validation) {
    EXPECT_THROW(MultiToneVibration({}), std::invalid_argument);
    EXPECT_THROW(MultiToneVibration({{1.0, 50.0}, {0.5, 0.0}}), std::invalid_argument);
}

TEST(Drift, FollowsProfile) {
    DriftVibration d(1.0, {0.0, 10.0, 20.0}, {60.0, 70.0, 65.0});
    EXPECT_DOUBLE_EQ(d.dominant_frequency(0.0), 60.0);
    EXPECT_DOUBLE_EQ(d.dominant_frequency(5.0), 65.0);
    EXPECT_DOUBLE_EQ(d.dominant_frequency(10.0), 70.0);
    EXPECT_DOUBLE_EQ(d.dominant_frequency(15.0), 67.5);
    EXPECT_DOUBLE_EQ(d.dominant_frequency(25.0), 65.0);  // clamped after end
}

TEST(Noisy, AddsRequestedNoisePower) {
    auto base = std::make_shared<SineVibration>(1.0, 60.0);
    NoisyVibration n(base, 0.3);
    EXPECT_NEAR(n.rms_amplitude(), std::sqrt(0.5 + 0.09), 1e-6);
    EXPECT_DOUBLE_EQ(n.dominant_frequency(0.0), 60.0);
}

TEST(Noisy, Validation) {
    auto base = std::make_shared<SineVibration>(1.0, 60.0);
    EXPECT_THROW(NoisyVibration(nullptr, 0.1), std::invalid_argument);
    EXPECT_THROW(NoisyVibration(base, -0.1), std::invalid_argument);
    EXPECT_THROW(NoisyVibration(base, std::nan("")), std::invalid_argument);
    EXPECT_NO_THROW(NoisyVibration(base, 0.0));
}

TEST(Sources, ScenarioRmsAndDominantFrequencyGoldenIsBitwiseStable) {
    // What the node co-simulation reads from each scenario's source at its
    // default horizon: the RMS amplitude, and the dominant frequency at t = 0,
    // between S2's breakpoints, at each of them (0, 150, 300, 450 and 600 s),
    // at each horizon and past them.
    const std::vector<double> times{0.0, 75.0, 150.0, 212.5, 300.0, 450.0, 600.0, 601.0, 1e4};
    struct Golden {
        ehdoe::core::ScenarioId id;
        double rms;
        std::vector<double> freqs;
    };
    const Golden goldens[] = {
        {ehdoe::core::ScenarioId::OfficeHvac, 0x1.21a1851ff630ap-1,
         {0x1.2p+6, 0x1.2p+6, 0x1.2p+6, 0x1.2p+6, 0x1.2p+6, 0x1.2p+6, 0x1.2p+6, 0x1.2p+6,
          0x1.2p+6}},
        {ehdoe::core::ScenarioId::Industrial, 0x1.b27247aff148ep-1,
         {0x1.08p+6, 0x1.18p+6, 0x1.28p+6, 0x1.3555555555555p+6, 0x1.48p+6, 0x1.1p+6, 0x1.1cp+6,
          0x1.1cp+6, 0x1.1cp+6}},
        {ehdoe::core::ScenarioId::Transport, 0x1.843e43d85e5b2p-1,
         {0x1.38p+6, 0x1.38p+6, 0x1.38p+6, 0x1.38p+6, 0x1.38p+6, 0x1.38p+6, 0x1.38p+6, 0x1.38p+6,
          0x1.38p+6}},
    };
    for (const Golden& g : goldens) {
        const auto s = ehdoe::core::Scenario::make(g.id);
        const VibrationSource& src = *s.vibration();
        EXPECT_EQ(hex({src.rms_amplitude()}), hex({g.rms})) << s.name();
        std::vector<double> freqs;
        for (double t : times) freqs.push_back(src.dominant_frequency(t));
        EXPECT_EQ(hex(freqs), hex(g.freqs)) << s.name();
    }
}

// Property: each source's RMS formula matches the RMS of the waveform it
// stands for, sampled here over 4 s at 100 kHz.
class RmsP : public ::testing::TestWithParam<int> {};

TEST_P(RmsP, RmsMatchesSampledEstimate) {
    std::shared_ptr<VibrationSource> src;
    std::function<double(double)> waveform;
    switch (GetParam()) {
        case 0:
            src = std::make_shared<SineVibration>(1.3, 47.0);
            waveform = [](double t) { return 1.3 * std::sin(2.0 * M_PI * 47.0 * t); };
            break;
        case 1:
            src = std::make_shared<MultiToneVibration>(
                std::vector<MultiToneVibration::Tone>{{0.8, 50.0}, {0.4, 75.0}});
            waveform = [](double t) {
                return 0.8 * std::sin(2.0 * M_PI * 50.0 * t) +
                       0.4 * std::sin(2.0 * M_PI * 75.0 * t + 0.3);
            };
            break;
        default:
            // Phase: the integral of f(t) = 55 + 2.5 t Hz.
            src = std::make_shared<DriftVibration>(0.9, std::vector<double>{0.0, 4.0},
                                                   std::vector<double>{55.0, 65.0});
            waveform = [](double t) {
                return 0.9 * std::sin(2.0 * M_PI * (55.0 * t + 1.25 * t * t));
            };
            break;
    }
    double acc = 0.0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        const double a = waveform(i * (4.0 / n));
        acc += a * a;
    }
    EXPECT_NEAR(std::sqrt(acc / n), src->rms_amplitude(), 0.05 * src->rms_amplitude());
}

INSTANTIATE_TEST_SUITE_P(Sources, RmsP, ::testing::Values(0, 1, 2));
