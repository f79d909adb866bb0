#include "harvester/vibration.hpp"

#include <cmath>
#include <stdexcept>

namespace ehdoe::harvester {

// ------------------------------------------------------------------- sine

SineVibration::SineVibration(double amplitude, double frequency_hz)
    : amp_(amplitude), freq_(frequency_hz) {
    if (!(amplitude >= 0.0)) throw std::invalid_argument("SineVibration: amplitude >= 0");
    if (!(frequency_hz > 0.0)) throw std::invalid_argument("SineVibration: frequency > 0");
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
}

double DriftVibration::dominant_frequency(double t) const { return freq_(t); }

double DriftVibration::rms_amplitude() const { return amp_ / M_SQRT2; }

// ------------------------------------------------------------------ noisy

NoisyVibration::NoisyVibration(std::shared_ptr<const VibrationSource> base, double noise_rms)
    : base_(std::move(base)), noise_rms_(noise_rms) {
    if (!base_) throw std::invalid_argument("NoisyVibration: null base source");
    if (!(noise_rms >= 0.0)) throw std::invalid_argument("NoisyVibration: noise_rms >= 0");
}

double NoisyVibration::dominant_frequency(double t) const { return base_->dominant_frequency(t); }

double NoisyVibration::rms_amplitude() const {
    const double b = base_->rms_amplitude();
    return std::sqrt(b * b + noise_rms_ * noise_rms_);
}

}  // namespace ehdoe::harvester
