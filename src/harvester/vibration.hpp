// ehdoe/harvester/vibration.hpp
//
// Excitation sources for the kinetic harvester: the base acceleration a(t)
// (m/s^2) that drives the cantilever. The paper's measured machinery traces
// are not available, so the toolkit provides parametric sources with
// matching spectral character (see DESIGN.md §3 Substitutions):
//
//  * SineVibration        — stationary single tone (office HVAC, fans)
//  * MultiToneVibration   — dominant tone + harmonics/spurs
//  * DriftVibration       — piecewise-linear drifting dominant frequency
//                           (industrial machinery under varying load; the
//                           scenario that motivates *tunable* harvesters)
//  * NoisyVibration       — decorates any source with band-limited noise
//
// All sources also report their *instantaneous dominant frequency*, which
// the test suite uses as ground truth for the tuning controller's estimator.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "numerics/interp.hpp"
#include "numerics/stats.hpp"

namespace ehdoe::harvester {

/// Interface: base acceleration as a function of time.
class VibrationSource {
public:
    virtual ~VibrationSource() = default;

    /// Base acceleration a(t) in m/s^2.
    virtual double acceleration(double t) const = 0;

    /// Instantaneous dominant frequency (Hz) — ground truth for controllers.
    virtual double dominant_frequency(double t) const = 0;

    /// RMS amplitude estimate over the source's natural period (used for
    /// power-flow models). Default samples numerically.
    virtual double rms_amplitude() const;
};

/// a(t) = A sin(2 pi f t + phase).
class SineVibration final : public VibrationSource {
public:
    SineVibration(double amplitude, double frequency_hz, double phase = 0.0);

    double acceleration(double t) const override;
    double dominant_frequency(double /*t*/) const override { return freq_; }
    double rms_amplitude() const override;

    double amplitude() const { return amp_; }

private:
    double amp_;
    double freq_;
    double phase_;
};

/// Sum of tones; the dominant frequency is that of the largest amplitude.
class MultiToneVibration final : public VibrationSource {
public:
    struct Tone {
        double amplitude;
        double frequency_hz;
        double phase = 0.0;
    };
    explicit MultiToneVibration(std::vector<Tone> tones);

    double acceleration(double t) const override;
    double dominant_frequency(double t) const override;
    double rms_amplitude() const override;

    const std::vector<Tone>& tones() const { return tones_; }

private:
    std::vector<Tone> tones_;
    std::size_t dominant_index_;
};

/// Dominant frequency follows a piecewise-linear profile f(t) given as
/// (time, frequency) breakpoints; amplitude constant. Phase is integrated
/// so the waveform is continuous through breakpoints.
class DriftVibration final : public VibrationSource {
public:
    DriftVibration(double amplitude, std::vector<double> times, std::vector<double> freqs_hz);

    double acceleration(double t) const override;
    double dominant_frequency(double t) const override;
    double rms_amplitude() const override;

private:
    double phase_at(double t) const;

    double amp_;
    num::LinearTable freq_;
    // Precomputed phase at each breakpoint for O(1) continuous phase.
    std::vector<double> knot_t_;
    std::vector<double> knot_phase_;
};

/// Wraps a base source and adds band-limited (first-order filtered) Gaussian
/// noise, reproducibly seeded. Noise is generated on a fixed sample grid so
/// acceleration(t) is a pure function of t.
///
/// The noise record (duration * rate + 2 samples: 4.8 MB for 300 s at
/// 2 kHz) is built on the first acceleration() call, once, even when
/// threads race to make it; dominant_frequency() and rms_amplitude() never
/// need it. So a source nothing samples costs no record.
class NoisyVibration final : public VibrationSource {
public:
    NoisyVibration(std::shared_ptr<const VibrationSource> base, double noise_rms,
                   double bandwidth_hz, std::uint64_t seed, double duration_s,
                   double sample_rate_hz = 2000.0);

    double acceleration(double t) const override;
    double dominant_frequency(double t) const override;
    double rms_amplitude() const override;

private:
    /// The filtered noise at the fixed rate, built on the first call.
    const std::vector<double>& samples() const;

    std::shared_ptr<const VibrationSource> base_;
    double noise_rms_;
    double bandwidth_;
    std::uint64_t seed_;
    double rate_;
    std::size_t size_ = 0;
    mutable std::once_flag built_;
    mutable std::vector<double> samples_;
};

}  // namespace ehdoe::harvester
