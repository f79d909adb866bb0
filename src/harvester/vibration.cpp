#include "harvester/vibration.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ehdoe::harvester {

namespace {
constexpr double kTwoPi = 2.0 * M_PI;
}

double VibrationSource::rms_amplitude() const {
    // Numeric fallback: sample 4 s at 2 kHz.
    double acc = 0.0;
    const int n = 8000;
    for (int i = 0; i < n; ++i) {
        const double a = acceleration(i * (4.0 / n));
        acc += a * a;
    }
    return std::sqrt(acc / n);
}

// ------------------------------------------------------------------- sine

SineVibration::SineVibration(double amplitude, double frequency_hz, double phase)
    : amp_(amplitude), freq_(frequency_hz), phase_(phase) {
    if (!(amplitude >= 0.0)) throw std::invalid_argument("SineVibration: amplitude >= 0");
    if (!(frequency_hz > 0.0)) throw std::invalid_argument("SineVibration: frequency > 0");
}

double SineVibration::acceleration(double t) const {
    return amp_ * std::sin(kTwoPi * freq_ * t + phase_);
}

double SineVibration::rms_amplitude() const { return amp_ / M_SQRT2; }

// -------------------------------------------------------------- multitone

MultiToneVibration::MultiToneVibration(std::vector<Tone> tones) : tones_(std::move(tones)) {
    if (tones_.empty()) throw std::invalid_argument("MultiToneVibration: needs >= 1 tone");
    dominant_index_ = 0;
    for (std::size_t i = 0; i < tones_.size(); ++i) {
        if (!(tones_[i].frequency_hz > 0.0))
            throw std::invalid_argument("MultiToneVibration: frequency > 0");
        if (std::fabs(tones_[i].amplitude) > std::fabs(tones_[dominant_index_].amplitude))
            dominant_index_ = i;
    }
}

double MultiToneVibration::acceleration(double t) const {
    double a = 0.0;
    for (const Tone& tone : tones_) {
        a += tone.amplitude * std::sin(kTwoPi * tone.frequency_hz * t + tone.phase);
    }
    return a;
}

double MultiToneVibration::dominant_frequency(double /*t*/) const {
    return tones_[dominant_index_].frequency_hz;
}

double MultiToneVibration::rms_amplitude() const {
    double acc = 0.0;
    for (const Tone& tone : tones_) acc += 0.5 * tone.amplitude * tone.amplitude;
    return std::sqrt(acc);
}

// ------------------------------------------------------------------ drift

DriftVibration::DriftVibration(double amplitude, std::vector<double> times,
                               std::vector<double> freqs_hz)
    : amp_(amplitude), freq_(times, freqs_hz) {
    for (double f : freqs_hz) {
        if (!(f > 0.0)) throw std::invalid_argument("DriftVibration: frequencies > 0");
    }
    // Phase at each knot: integral of f over the profile, trapezoid exact
    // because f is piecewise linear.
    knot_t_ = times;
    knot_phase_.resize(times.size());
    knot_phase_[0] = 0.0;
    for (std::size_t i = 1; i < times.size(); ++i) {
        const double dt = times[i] - times[i - 1];
        knot_phase_[i] =
            knot_phase_[i - 1] + kTwoPi * 0.5 * (freqs_hz[i] + freqs_hz[i - 1]) * dt;
    }
}

double DriftVibration::phase_at(double t) const {
    if (t <= knot_t_.front()) {
        return knot_phase_.front() + kTwoPi * freq_(knot_t_.front()) * (t - knot_t_.front());
    }
    if (t >= knot_t_.back()) {
        return knot_phase_.back() + kTwoPi * freq_(knot_t_.back()) * (t - knot_t_.back());
    }
    const auto it = std::upper_bound(knot_t_.begin(), knot_t_.end(), t);
    const std::size_t i = static_cast<std::size_t>(it - knot_t_.begin()) - 1;
    const double dt = t - knot_t_[i];
    const double f0 = freq_(knot_t_[i]);
    const double ft = freq_(t);
    return knot_phase_[i] + kTwoPi * 0.5 * (f0 + ft) * dt;
}

double DriftVibration::acceleration(double t) const { return amp_ * std::sin(phase_at(t)); }

double DriftVibration::dominant_frequency(double t) const { return freq_(t); }

double DriftVibration::rms_amplitude() const { return amp_ / M_SQRT2; }

// ------------------------------------------------------------------ noisy

NoisyVibration::NoisyVibration(std::shared_ptr<const VibrationSource> base, double noise_rms,
                               double bandwidth_hz, std::uint64_t seed, double duration_s,
                               double sample_rate_hz)
    : base_(std::move(base)),
      noise_rms_(noise_rms),
      bandwidth_(bandwidth_hz),
      seed_(seed),
      rate_(sample_rate_hz) {
    if (!base_) throw std::invalid_argument("NoisyVibration: null base source");
    if (!(noise_rms >= 0.0)) throw std::invalid_argument("NoisyVibration: noise_rms >= 0");
    if (!(bandwidth_hz > 0.0) || !(sample_rate_hz > 2.0 * bandwidth_hz)) {
        throw std::invalid_argument("NoisyVibration: need sample_rate > 2*bandwidth > 0");
    }
    // Checked here, not when the record is built: bad input fails at once.
    if (!std::isfinite(duration_s) || duration_s < 0.0)
        throw std::invalid_argument("NoisyVibration: finite duration >= 0");
    // The record's size must be one a vector can hold before it is cast; an
    // infinite rate makes the product infinite, or NaN at zero duration.
    const double record = duration_s * sample_rate_hz;
    if (!(record < static_cast<double>(samples_.max_size())))
        throw std::invalid_argument("NoisyVibration: duration * sample_rate too large");
    size_ = static_cast<std::size_t>(record) + 2;
}

const std::vector<double>& NoisyVibration::samples() const {
    std::call_once(built_, [this] {
        samples_.resize(size_);
        num::Rng rng = num::make_rng(seed_);
        // One-pole low-pass on white Gaussian noise, then re-normalize to the
        // requested RMS.
        const double alpha = std::exp(-kTwoPi * bandwidth_ / rate_);
        double y = 0.0;
        for (auto& s : samples_) {
            y = alpha * y + (1.0 - alpha) * num::normal(rng);
            s = y;
        }
        const double current_rms = num::rms(samples_);
        if (current_rms > 0.0) {
            const double g = noise_rms_ / current_rms;
            for (auto& s : samples_) s *= g;
        }
    });
    return samples_;
}

double NoisyVibration::acceleration(double t) const {
    const std::vector<double>& samples = this->samples();
    double noise = 0.0;
    if (!samples.empty() && t >= 0.0) {
        const double pos = t * rate_;
        const auto i = static_cast<std::size_t>(pos);
        if (i + 1 < samples.size()) {
            const double w = pos - static_cast<double>(i);
            noise = samples[i] * (1.0 - w) + samples[i + 1] * w;
        } else {
            noise = samples.back();
        }
    }
    return base_->acceleration(t) + noise;
}

double NoisyVibration::dominant_frequency(double t) const { return base_->dominant_frequency(t); }

double NoisyVibration::rms_amplitude() const {
    const double b = base_->rms_amplitude();
    return std::sqrt(b * b + noise_rms_ * noise_rms_);
}

}  // namespace ehdoe::harvester
