#include "doe/lhs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace ehdoe::doe {

Design latin_hypercube(std::size_t runs, std::size_t k, num::Rng& rng,
                       const LhsOptions& options) {
    if (runs < 2) throw std::invalid_argument("latin_hypercube: runs >= 2");
    if (k == 0) throw std::invalid_argument("latin_hypercube: k >= 1");

    Design d;
    d.kind = "lhs(n=" + std::to_string(runs) + ")";
    d.points = Matrix(runs, k);
    for (std::size_t f = 0; f < k; ++f) {
        const std::vector<std::size_t> perm = num::permutation(rng, runs);
        for (std::size_t i = 0; i < runs; ++i) {
            const double offset = options.jitter ? num::uniform(rng, 0.0, 1.0) : 0.5;
            const double unit = (static_cast<double>(perm[i]) + offset) /
                                static_cast<double>(runs);
            d.points(i, f) = 2.0 * unit - 1.0;
        }
    }

    // Maximin hill climbing: swap two entries within a random column; keep
    // the swap when the minimum pairwise distance does not decrease.
    if (options.maximin_iterations > 0 && runs > 2) {
        double best = min_pairwise_distance(d.points);
        for (std::size_t it = 0; it < options.maximin_iterations; ++it) {
            const auto f = static_cast<std::size_t>(
                num::uniform_int(rng, 0, static_cast<int>(k) - 1));
            const auto a = static_cast<std::size_t>(
                num::uniform_int(rng, 0, static_cast<int>(runs) - 1));
            auto b = static_cast<std::size_t>(
                num::uniform_int(rng, 0, static_cast<int>(runs) - 1));
            if (a == b) b = (b + 1) % runs;
            std::swap(d.points(a, f), d.points(b, f));
            const double cand = min_pairwise_distance(d.points);
            if (cand >= best) {
                best = cand;
            } else {
                std::swap(d.points(a, f), d.points(b, f));  // revert
            }
        }
    }
    return d;
}

Design latin_hypercube(std::size_t runs, std::size_t k, std::uint64_t seed,
                       const LhsOptions& options) {
    num::Rng rng = num::make_rng(seed);
    return latin_hypercube(runs, k, rng, options);
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
