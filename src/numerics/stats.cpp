#include "numerics/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ehdoe::num {

double mean(const std::vector<double>& xs) {
    if (xs.empty()) return 0.0;
    return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double min_of(const std::vector<double>& xs) {
    if (xs.empty()) throw std::invalid_argument("min_of: empty");
    return *std::min_element(xs.begin(), xs.end());
}

double max_of(const std::vector<double>& xs) {
    if (xs.empty()) throw std::invalid_argument("max_of: empty");
    return *std::max_element(xs.begin(), xs.end());
}

double rms(const std::vector<double>& xs) {
    if (xs.empty()) return 0.0;
    double acc = 0.0;
    for (double x : xs) acc += x * x;
    return std::sqrt(acc / static_cast<double>(xs.size()));
}

double uniform(Rng& rng, double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(rng);
}

double normal(Rng& rng, double mu, double sigma) {
    std::normal_distribution<double> dist(mu, sigma);
    return dist(rng);
}

int uniform_int(Rng& rng, int lo, int hi) {
    std::uniform_int_distribution<int> dist(lo, hi);
    return dist(rng);
}

std::vector<std::size_t> permutation(Rng& rng, std::size_t n) {
    std::vector<std::size_t> p(n);
    std::iota(p.begin(), p.end(), std::size_t{0});
    std::shuffle(p.begin(), p.end(), rng);
    return p;
}

Histogram histogram(const std::vector<double>& xs, std::size_t bins, double lo, double hi) {
    if (bins == 0) throw std::invalid_argument("histogram: bins must be positive");
    if (!(hi > lo)) throw std::invalid_argument("histogram: hi must exceed lo");
    const double w = (hi - lo) / static_cast<double>(bins);
    if (!(w > 0.0) || std::isinf(w))
        throw std::invalid_argument("histogram: bin width must be positive and finite");
    Histogram h;
    h.lo = lo;
    h.hi = hi;
    h.counts.assign(bins, 0);
    for (double x : xs) {
        if (std::isnan(x)) throw std::invalid_argument("histogram: NaN value");
        // Clamped as a double: an integer cast of a position ~9e18 bins or
        // more out, or an infinite one, is undefined.
        const double pos = std::clamp((x - lo) / w, 0.0, static_cast<double>(bins - 1));
        ++h.counts[static_cast<std::size_t>(pos)];
    }
    return h;
}

Histogram histogram(const std::vector<double>& xs, std::size_t bins) {
    if (xs.empty()) throw std::invalid_argument("histogram: empty data");
    // An infinite value would make the range, and so every position, NaN.
    for (double x : xs)
        if (!std::isfinite(x)) throw std::invalid_argument("histogram: non-finite value");
    double lo = min_of(xs), hi = max_of(xs);
    if (hi == lo) hi = lo + 1.0;  // degenerate data: single bin span
    return histogram(xs, bins, lo, hi);
}

}  // namespace ehdoe::num
