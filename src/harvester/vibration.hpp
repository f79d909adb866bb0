// ehdoe/harvester/vibration.hpp
//
// Excitation sources for the kinetic harvester. The paper's measured
// machinery traces are not available, so the toolkit provides parametric
// sources with matching spectral character (see DESIGN.md §3 Substitutions):
//
//  * SineVibration        — stationary single tone (office HVAC, fans)
//  * MultiToneVibration   — dominant tone + harmonics/spurs
//  * DriftVibration       — piecewise-linear drifting dominant frequency
//                           (industrial machinery under varying load; the
//                           scenario that motivates *tunable* harvesters)
//  * NoisyVibration       — adds broadband noise power to any source
//
// The node co-simulation reads two things from a source: its RMS amplitude,
// which sets the harvested power, and its instantaneous dominant frequency,
// which the tuning controller tracks (the test suite uses it as ground truth
// for the controller's estimator). Circuit-level runs drive the harvester
// with a base excitation a(t) of their own (HarvesterCircuit::make_input).
#pragma once

#include <memory>
#include <vector>

#include "numerics/interp.hpp"

namespace ehdoe::harvester {

/// Interface: what the power-flow models read from a vibration source.
class VibrationSource {
public:
    virtual ~VibrationSource() = default;

    /// Instantaneous dominant frequency (Hz) — ground truth for controllers.
    virtual double dominant_frequency(double t) const = 0;

    /// RMS amplitude of the base excitation (m/s^2), used by the
    /// power-flow models.
    virtual double rms_amplitude() const = 0;
};

/// a(t) = A sin(2 pi f t).
class SineVibration final : public VibrationSource {
public:
    SineVibration(double amplitude, double frequency_hz);

    double dominant_frequency(double /*t*/) const override { return freq_; }
    double rms_amplitude() const override;

private:
    double amp_;
    double freq_;
};

/// Sum of tones; the dominant frequency is that of the largest amplitude.
class MultiToneVibration final : public VibrationSource {
public:
    struct Tone {
        double amplitude;
        double frequency_hz;
    };
    explicit MultiToneVibration(std::vector<Tone> tones);

    double dominant_frequency(double t) const override;
    double rms_amplitude() const override;

private:
    std::vector<Tone> tones_;
    std::size_t dominant_index_;
};

/// Dominant frequency follows a piecewise-linear profile f(t) given as
/// (time, frequency) breakpoints, held at the end values outside them;
/// amplitude constant.
class DriftVibration final : public VibrationSource {
public:
    DriftVibration(double amplitude, std::vector<double> times, std::vector<double> freqs_hz);

    double dominant_frequency(double t) const override;
    double rms_amplitude() const override;

private:
    double amp_;
    num::LinearTable freq_;
};

/// Wraps a base source and adds broadband noise of RMS `noise_rms`,
/// uncorrelated with it, so the two powers add.
class NoisyVibration final : public VibrationSource {
public:
    NoisyVibration(std::shared_ptr<const VibrationSource> base, double noise_rms);

    double dominant_frequency(double t) const override;
    double rms_amplitude() const override;

private:
    std::shared_ptr<const VibrationSource> base_;
    double noise_rms_;
};

}  // namespace ehdoe::harvester
