// Vibration source tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
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

std::vector<double> sample(const VibrationSource& src, const std::vector<double>& times) {
    std::vector<double> out;
    for (double t : times) out.push_back(src.acceleration(t));
    return out;
}

}  // namespace

TEST(Sine, WaveformAndRms) {
    SineVibration s(2.0, 50.0);
    EXPECT_NEAR(s.acceleration(0.0), 0.0, 1e-12);
    EXPECT_NEAR(s.acceleration(0.005), 2.0, 1e-12);  // quarter period
    EXPECT_DOUBLE_EQ(s.dominant_frequency(123.0), 50.0);
    EXPECT_NEAR(s.rms_amplitude(), 2.0 / M_SQRT2, 1e-12);
}

TEST(Sine, Validation) {
    EXPECT_THROW(SineVibration(-1.0, 50.0), std::invalid_argument);
    EXPECT_THROW(SineVibration(1.0, 0.0), std::invalid_argument);
}

TEST(MultiTone, DominantIsLargestAmplitude) {
    MultiToneVibration m({{0.2, 30.0, 0.0}, {0.9, 60.0, 0.0}, {0.3, 90.0, 0.0}});
    EXPECT_DOUBLE_EQ(m.dominant_frequency(0.0), 60.0);
    EXPECT_NEAR(m.rms_amplitude(), std::sqrt((0.04 + 0.81 + 0.09) / 2.0), 1e-12);
}

TEST(MultiTone, SuperpositionAtTimeZero) {
    MultiToneVibration m({{1.0, 10.0, M_PI / 2.0}, {0.5, 20.0, M_PI / 2.0}});
    EXPECT_NEAR(m.acceleration(0.0), 1.5, 1e-12);
    EXPECT_THROW(MultiToneVibration({}), std::invalid_argument);
}

TEST(Drift, FollowsProfile) {
    DriftVibration d(1.0, {0.0, 10.0, 20.0}, {60.0, 70.0, 65.0});
    EXPECT_DOUBLE_EQ(d.dominant_frequency(0.0), 60.0);
    EXPECT_DOUBLE_EQ(d.dominant_frequency(5.0), 65.0);
    EXPECT_DOUBLE_EQ(d.dominant_frequency(10.0), 70.0);
    EXPECT_DOUBLE_EQ(d.dominant_frequency(15.0), 67.5);
    EXPECT_DOUBLE_EQ(d.dominant_frequency(25.0), 65.0);  // clamped after end
}

TEST(Drift, WaveformContinuousThroughBreakpoints) {
    DriftVibration d(1.0, {0.0, 1.0, 2.0}, {50.0, 60.0, 55.0});
    const double eps = 1e-7;
    for (double knot : {1.0, 2.0}) {
        EXPECT_NEAR(d.acceleration(knot - eps), d.acceleration(knot + eps), 1e-3);
    }
}

TEST(Drift, InstantaneousFrequencyMatchesZeroCrossings) {
    DriftVibration d(1.0, {0.0, 100.0}, {60.0, 60.0});
    int crossings = 0;
    double prev = d.acceleration(10.0);
    const double dt = 1e-4;
    for (double t = 10.0 + dt; t < 11.0; t += dt) {
        const double cur = d.acceleration(t);
        if (prev < 0.0 && cur >= 0.0) ++crossings;
        prev = cur;
    }
    EXPECT_NEAR(crossings, 60, 1);
}

TEST(Noisy, AddsRequestedNoisePower) {
    auto base = std::make_shared<SineVibration>(1.0, 60.0);
    NoisyVibration n(base, 0.3, 100.0, 42, 10.0);
    EXPECT_NEAR(n.rms_amplitude(), std::sqrt(0.5 + 0.09), 1e-6);
    EXPECT_DOUBLE_EQ(n.dominant_frequency(0.0), 60.0);
}

TEST(Noisy, DeterministicFromSeed) {
    auto base = std::make_shared<SineVibration>(1.0, 60.0);
    NoisyVibration a(base, 0.3, 100.0, 7, 2.0);
    NoisyVibration b(base, 0.3, 100.0, 7, 2.0);
    for (double t = 0.0; t < 1.0; t += 0.1) {
        EXPECT_DOUBLE_EQ(a.acceleration(t), b.acceleration(t));
    }
    NoisyVibration c(base, 0.3, 100.0, 8, 2.0);
    EXPECT_NE(a.acceleration(0.5), c.acceleration(0.5));
}

// S3's 300 s source sampled before its noise record, at its start, inside
// it, at its last interpolated sample and past its end, with the bits the
// record has always given there.
const std::vector<double> kS3Times{-1.0, 0.0, 1e-3, 0.123456, 150.0, 299.9995, 300.0, 301.0};
const std::vector<std::string> kS3Golden =
    hex({0x1.618822923ebfep-2, 0x1.3024001396d06p-2, 0x1.b1de6083f8175p-1,
         -0x1.12a3f7def44fp+0, 0x1.850f5342355bcp-2, -0x1.32f2cfaaf0b57p-5,
         0x1.01c0ac6fbea71p-2, 0x1.d047043443c84p-3});

TEST(Noisy, GoldenIsBitwiseStable) {
    // A change to how or when the noise record is built must not move a bit.
    const auto s3 = ehdoe::core::Scenario::make(ehdoe::core::ScenarioId::Transport);
    ASSERT_EQ(s3.duration(), 300.0);
    EXPECT_EQ(hex(sample(*s3.vibration(), kS3Times)), kS3Golden);

    // A 10 s record at its own start and end, then at S3's times, which all
    // lie past its end.
    auto base = std::make_shared<SineVibration>(1.0, 60.0);
    NoisyVibration n(base, 0.3, 100.0, 42, 10.0);
    EXPECT_EQ(hex(sample(n, {-1.0, 0.0, 1e-3, 0.123456, 5.0, 9.9995, 10.0, 11.0, 150.0,
                             299.9995, 300.0, 301.0})),
              hex({0x1.845e1e7f18b23p-45, 0x1.273402ec2763fp-3, -0x1.f49603713d93p-6,
                   0x1.0e27ab1fea538p-1, -0x1.dcf8c76bb1e4cp-3, 0x1.a512a8d98bf78p-6,
                   0x1.d218e90a10bcdp-3, 0x1.0bb760da31605p-2, 0x1.0bb760da16847p-2,
                   0x1.2f59f6c7ceefep-4, 0x1.0bb760d9f9128p-2, 0x1.0bb760d9e762p-2}));
}

TEST(Noisy, ThreadsRacingToBuildTheRecordAllReadTheGolden) {
    // The record is built on the first acceleration() call; eight threads
    // making that call at once on one shared source all read its bits.
    const auto s3 = ehdoe::core::Scenario::make(ehdoe::core::ScenarioId::Transport);
    const std::shared_ptr<const VibrationSource> source = s3.vibration();
    std::vector<std::vector<double>> seen(8);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < seen.size(); ++k) {
        threads.emplace_back([&, k] {
            ready.fetch_add(1);
            while (ready.load() < static_cast<int>(seen.size())) {
            }
            seen[k] = sample(*source, kS3Times);
        });
    }
    for (std::thread& t : threads) t.join();
    for (const std::vector<double>& s : seen) EXPECT_EQ(hex(s), kS3Golden);
}

TEST(Noisy, Validation) {
    auto base = std::make_shared<SineVibration>(1.0, 60.0);
    EXPECT_THROW(NoisyVibration(nullptr, 0.1, 100.0, 1, 1.0), std::invalid_argument);
    EXPECT_THROW(NoisyVibration(base, 0.1, 100.0, 1, 1.0, 150.0), std::invalid_argument);
    EXPECT_THROW(NoisyVibration(base, 0.1, 100.0, 1, -1.0), std::invalid_argument);
}

TEST(Noisy, RejectsARecordTooLongToHold) {
    // Casting the sample count to size_t is undefined for an infinite rate
    // or a count of 2^64 or more (S3's source at a 1e300 s horizon asks for
    // 2e303 samples), so the constructor refuses both.
    auto base = std::make_shared<SineVibration>(1.0, 60.0);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(NoisyVibration(base, 0.1, 100.0, 1, 1.0, inf), std::invalid_argument);
    EXPECT_THROW(NoisyVibration(base, 0.1, 100.0, 1, 0.0, inf), std::invalid_argument);
    EXPECT_THROW(NoisyVibration(base, 0.1, 100.0, 1, 1e300), std::invalid_argument);
    EXPECT_THROW(ehdoe::core::Scenario::make(ehdoe::core::ScenarioId::Transport, 1e300),
                 std::invalid_argument);
    EXPECT_NO_THROW(NoisyVibration(base, 0.1, 100.0, 1, 0.0));
}

// Property: every source reports rms consistent with direct sampling.
class RmsP : public ::testing::TestWithParam<int> {};

TEST_P(RmsP, RmsMatchesSampledEstimate) {
    std::shared_ptr<VibrationSource> src;
    switch (GetParam()) {
        case 0: src = std::make_shared<SineVibration>(1.3, 47.0); break;
        case 1:
            src = std::make_shared<MultiToneVibration>(
                std::vector<MultiToneVibration::Tone>{{0.8, 50.0, 0.0}, {0.4, 75.0, 0.3}});
            break;
        default:
            src = std::make_shared<DriftVibration>(0.9, std::vector<double>{0.0, 4.0},
                                                   std::vector<double>{55.0, 65.0});
            break;
    }
    double acc = 0.0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        const double a = src->acceleration(i * (4.0 / n));
        acc += a * a;
    }
    EXPECT_NEAR(std::sqrt(acc / n), src->rms_amplitude(), 0.05 * src->rms_amplitude());
}

INSTANTIATE_TEST_SUITE_P(Sources, RmsP, ::testing::Values(0, 1, 2));
