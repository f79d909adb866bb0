#include "doe/lhs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace ehdoe::doe {

namespace {

/// Maximin passes; each proposes one random within-column swap and keeps it
/// unless the minimum pairwise distance drops.
constexpr std::size_t kMaximinIterations = 200;

}  // namespace

Design latin_hypercube(std::size_t runs, std::size_t k, num::Rng& rng) {
    if (runs < 2) throw std::invalid_argument("latin_hypercube: runs >= 2");
    if (k == 0) throw std::invalid_argument("latin_hypercube: k >= 1");

    Design d;
    d.kind = "lhs(n=" + std::to_string(runs) + ")";
    d.points = Matrix(runs, k);
    for (std::size_t f = 0; f < k; ++f) {
        const std::vector<std::size_t> perm = num::permutation(rng, runs);
        for (std::size_t i = 0; i < runs; ++i) {
            const double offset = num::uniform(rng, 0.0, 1.0);
            const double unit = (static_cast<double>(perm[i]) + offset) /
                                static_cast<double>(runs);
            d.points(i, f) = 2.0 * unit - 1.0;
        }
    }

    // Maximin hill climbing: swap two entries within a random column; keep
    // the swap when the minimum pairwise distance does not decrease.
    if (runs > 2) {
        // Squared distances of every pair, summed as min_pairwise_distance()
        // sums them. A swap moves only its two rows, so a pass recomputes
        // their 2(n-1) distances; the minimum over all pairs is exact.
        Matrix& x = d.points;
        std::vector<double> d2(runs * runs);
        const auto update_row = [&](std::size_t r) {
            for (std::size_t j = 0; j < runs; ++j) {
                if (j == r) continue;
                const std::size_t lo = std::min(r, j), hi = std::max(r, j);
                double sum = 0.0;
                for (std::size_t c = 0; c < k; ++c) {
                    const double e = x(lo, c) - x(hi, c);
                    sum += e * e;
                }
                d2[r * runs + j] = d2[j * runs + r] = sum;
            }
        };
        const auto min_distance = [&] {
            double m = std::numeric_limits<double>::infinity();
            for (std::size_t i = 0; i < runs; ++i) {
                for (std::size_t j = i + 1; j < runs; ++j) m = std::min(m, d2[i * runs + j]);
            }
            return std::sqrt(m);
        };
        for (std::size_t r = 0; r < runs; ++r) update_row(r);
        double best = min_distance();
        std::vector<double> saved(2 * runs);
        for (std::size_t it = 0; it < kMaximinIterations; ++it) {
            const auto f = static_cast<std::size_t>(
                num::uniform_int(rng, 0, static_cast<int>(k) - 1));
            const auto a = static_cast<std::size_t>(
                num::uniform_int(rng, 0, static_cast<int>(runs) - 1));
            auto b = static_cast<std::size_t>(
                num::uniform_int(rng, 0, static_cast<int>(runs) - 1));
            if (a == b) b = (b + 1) % runs;
            std::copy_n(d2.begin() + a * runs, runs, saved.begin());
            std::copy_n(d2.begin() + b * runs, runs, saved.begin() + runs);
            std::swap(x(a, f), x(b, f));
            update_row(a);
            update_row(b);
            const double cand = min_distance();
            if (cand >= best) {
                best = cand;
            } else {
                std::swap(x(a, f), x(b, f));  // revert
                for (std::size_t j = 0; j < runs; ++j) {
                    d2[a * runs + j] = d2[j * runs + a] = saved[j];
                    d2[b * runs + j] = d2[j * runs + b] = saved[runs + j];
                }
            }
        }
    }
    return d;
}

Design latin_hypercube(std::size_t runs, std::size_t k, std::uint64_t seed) {
    num::Rng rng = num::make_rng(seed);
    return latin_hypercube(runs, k, rng);
}

bool is_latin(const Design& design, double tol) {
    const std::size_t n = design.runs();
    if (n == 0) return false;
    for (std::size_t f = 0; f < design.dimension(); ++f) {
        std::vector<bool> seen(n, false);
        for (std::size_t i = 0; i < n; ++i) {
            // Stratum index of the point in column f.
            const double unit = (design.points(i, f) + 1.0) / 2.0;
            const double scaled = unit * static_cast<double>(n);
            auto s = static_cast<long>(std::floor(scaled + tol));
            if (s == static_cast<long>(n)) s = static_cast<long>(n) - 1;  // boundary
            if (s < 0 || s >= static_cast<long>(n)) return false;
            if (seen[static_cast<std::size_t>(s)]) return false;
            seen[static_cast<std::size_t>(s)] = true;
        }
    }
    return true;
}

}  // namespace ehdoe::doe
