// Firmware duty-cycle policy tests.
#include <gtest/gtest.h>

#include "node/firmware.hpp"

using namespace ehdoe::node;

TEST(Firmware, RunsWhenHealthy) {
    Firmware fw(FirmwareParams{}, NodePowerParams{});
    EXPECT_EQ(fw.decide(3.0, true), TaskDecision::Run);
    EXPECT_FALSE(fw.backed_off());
}

TEST(Firmware, SkipsWhenDead) {
    Firmware fw(FirmwareParams{}, NodePowerParams{});
    EXPECT_EQ(fw.decide(3.0, false), TaskDecision::SkipOff);
}

TEST(Firmware, BacksOffWhenLowAndRecovers) {
    FirmwareParams p;
    p.task_period = 4.0;
    p.low_voltage_threshold = 2.2;
    p.recover_voltage = 2.5;
    p.backoff_factor = 3.0;
    Firmware fw(p, NodePowerParams{});
    EXPECT_EQ(fw.decide(2.0, true), TaskDecision::SkipLow);
    EXPECT_TRUE(fw.backed_off());
    EXPECT_DOUBLE_EQ(fw.current_period(), 12.0);
    // Still low at 2.3 (below recover): stays backed off.
    EXPECT_EQ(fw.decide(2.3, true), TaskDecision::Run);
    EXPECT_TRUE(fw.backed_off());
    // Recovers at 2.6.
    EXPECT_EQ(fw.decide(2.6, true), TaskDecision::Run);
    EXPECT_FALSE(fw.backed_off());
    EXPECT_DOUBLE_EQ(fw.current_period(), 4.0);
}

TEST(Firmware, DutyCycleAndPeriodRoundTrip) {
    NodePowerParams power;
    FirmwareParams p;
    p.payload_bytes = 64;
    for (double duty : {0.001, 0.005, 0.02}) {
        const double period = FirmwareParams::period_for_duty(power, 64, duty);
        p.task_period = period;
        EXPECT_NEAR(p.duty_cycle(power), duty, 1e-12);
    }
    EXPECT_THROW(FirmwareParams::period_for_duty(power, 64, 0.0), std::invalid_argument);
    EXPECT_THROW(FirmwareParams::period_for_duty(power, 64, 1.5), std::invalid_argument);
}

TEST(Firmware, TaskEnergyForwarded) {
    NodePowerParams power;
    FirmwareParams p;
    p.payload_bytes = 96;
    Firmware fw(p, power);
    EXPECT_DOUBLE_EQ(fw.task_energy(), power.task_energy(96));
    EXPECT_DOUBLE_EQ(fw.task_duration(), power.task_duration(96));
}

TEST(Firmware, Validation) {
    FirmwareParams p;
    p.task_period = 0.0;
    EXPECT_THROW(Firmware(p, NodePowerParams{}), std::invalid_argument);
    p = FirmwareParams{};
    p.payload_bytes = 0;
    EXPECT_THROW(Firmware(p, NodePowerParams{}), std::invalid_argument);
    p = FirmwareParams{};
    p.backoff_factor = 0.5;
    EXPECT_THROW(Firmware(p, NodePowerParams{}), std::invalid_argument);
    p = FirmwareParams{};
    p.recover_voltage = p.low_voltage_threshold - 0.1;
    EXPECT_THROW(Firmware(p, NodePowerParams{}), std::invalid_argument);
}
