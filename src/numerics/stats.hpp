// ehdoe/numerics/stats.hpp
//
// Descriptive statistics and deterministic RNG utilities used by the DoE
// generators (LHS, D-optimal exchange), the optimizers (GA, SA) and the
// validation harness. All randomized components take an explicit engine so
// every experiment in the repo is reproducible from a seed.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace ehdoe::num {

/// The project-wide random engine. Mersenne Twister seeded explicitly.
using Rng = std::mt19937_64;

/// Convenience constructor making call sites self-documenting.
inline Rng make_rng(std::uint64_t seed) { return Rng(seed); }

// ------------------------------------------------------------ descriptive

double mean(const std::vector<double>& xs);
double min_of(const std::vector<double>& xs);
double max_of(const std::vector<double>& xs);
/// Root mean square of entries.
double rms(const std::vector<double>& xs);

// -------------------------------------------------------------- sampling

/// Uniform double in [lo, hi).
double uniform(Rng& rng, double lo, double hi);
/// Standard normal via std::normal_distribution.
double normal(Rng& rng, double mu = 0.0, double sigma = 1.0);
/// Uniform integer in [lo, hi] inclusive.
int uniform_int(Rng& rng, int lo, int hi);
/// Random permutation of 0..n-1.
std::vector<std::size_t> permutation(Rng& rng, std::size_t n);

/// Simple histogram with equal-width bins over [lo, hi]; values outside,
/// infinite ones included, are clamped into the end bins. A NaN value, or a
/// range whose bin width is not positive and finite, throws
/// std::invalid_argument. Used by the residual-diagnostics bench (F6).
struct Histogram {
    double lo = 0.0;
    double hi = 1.0;
    std::vector<std::size_t> counts;

    double bin_width() const { return (hi - lo) / static_cast<double>(counts.size()); }
    double bin_center(std::size_t i) const { return lo + (static_cast<double>(i) + 0.5) * bin_width(); }
};
Histogram histogram(const std::vector<double>& xs, std::size_t bins, double lo, double hi);
/// Auto-ranged variant over [min, max] of the data, which must be finite.
Histogram histogram(const std::vector<double>& xs, std::size_t bins);

}  // namespace ehdoe::num
