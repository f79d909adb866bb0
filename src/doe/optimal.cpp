#include "doe/optimal.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "numerics/linalg.hpp"

namespace ehdoe::doe {

namespace {

/// Candidate levels per factor over [-1, 1].
constexpr std::size_t kGridLevels = 3;
/// Exchange passes over the design (each pass tries to swap every design
/// point for its best candidate).
constexpr std::size_t kMaxPasses = 20;
/// Random starts; the best determinant wins.
constexpr std::size_t kRestarts = 3;

/// All levels^k candidate points (coded). Kept dense; for the factor
/// counts used here (k <= 8, 3 levels) this is at most 6561 candidates.
Matrix candidate_grid(std::size_t k, std::size_t levels) {
    std::size_t n = 1;
    for (std::size_t f = 0; f < k; ++f) {
        if (n > 200'000 / levels) throw std::invalid_argument("d_optimal: candidate grid too big");
        n *= levels;
    }
    Matrix grid(n, k);
    std::vector<std::size_t> idx(k, 0);
    for (std::size_t row = 0; row < n; ++row) {
        for (std::size_t f = 0; f < k; ++f) {
            grid(row, f) = -1.0 + 2.0 * static_cast<double>(idx[f]) /
                                      static_cast<double>(levels - 1);
        }
        for (std::size_t f = 0; f < k; ++f) {
            if (++idx[f] < levels) break;
            idx[f] = 0;
        }
    }
    return grid;
}

double log_det_xtx(const Matrix& x) {
    const num::Matrix xtx = num::mul_at_b(x, x);
    try {
        // Cholesky is the right factorization: X^T X is symmetric and must
        // be PD for a non-singular design.
        return num::CholeskyFactor(xtx).log_determinant();
    } catch (const std::runtime_error&) {
        return -std::numeric_limits<double>::infinity();
    }
}

}  // namespace

double log_det_information(const Design& design, const std::vector<num::Monomial>& terms) {
    const Matrix x = num::model_matrix(terms, design.points);
    return log_det_xtx(x);
}

DOptimalResult d_optimal(std::size_t runs, std::size_t k,
                         const std::vector<num::Monomial>& terms, num::Rng& rng) {
    if (k == 0) throw std::invalid_argument("d_optimal: k >= 1");
    if (terms.empty()) throw std::invalid_argument("d_optimal: model terms required");
    if (runs < terms.size()) {
        throw std::invalid_argument("d_optimal: runs must be >= number of model terms");
    }

    const Matrix cand = candidate_grid(k, kGridLevels);
    const Matrix cand_x = num::model_matrix(terms, cand);
    const std::size_t nc = cand.rows();

    DOptimalResult best;
    best.log_det = -std::numeric_limits<double>::infinity();

    for (std::size_t restart = 0; restart < kRestarts; ++restart) {
        // Random initial selection (with replacement allowed; exchanges will
        // de-duplicate where beneficial).
        std::vector<std::size_t> sel(runs);
        for (auto& s : sel)
            s = static_cast<std::size_t>(num::uniform_int(rng, 0, static_cast<int>(nc) - 1));

        auto design_x = [&]() {
            Matrix x(runs, terms.size());
            for (std::size_t i = 0; i < runs; ++i) x.set_row(i, cand_x.row(sel[i]));
            return x;
        };

        double cur = log_det_xtx(design_x());
        std::size_t pass = 0;
        for (; pass < kMaxPasses; ++pass) {
            bool improved = false;
            for (std::size_t i = 0; i < runs; ++i) {
                const std::size_t keep = sel[i];
                double best_here = cur;
                std::size_t best_cand = keep;
                // Full Fedorov sweep over candidates for position i. Designs
                // here are small (runs <= ~100, candidates <= ~6561), so a
                // direct recompute is affordable and robust.
                for (std::size_t c = 0; c < nc; ++c) {
                    if (c == keep) continue;
                    sel[i] = c;
                    const double d = log_det_xtx(design_x());
                    if (d > best_here + 1e-12) {
                        best_here = d;
                        best_cand = c;
                    }
                }
                sel[i] = best_cand;
                if (best_cand != keep) {
                    cur = best_here;
                    improved = true;
                }
            }
            if (!improved) break;
        }

        if (cur > best.log_det) {
            best.log_det = cur;
            best.passes_used = pass;
            best.design.kind = "d-optimal(n=" + std::to_string(runs) + ")";
            best.design.points = Matrix(runs, k);
            for (std::size_t i = 0; i < runs; ++i) best.design.points.set_row(i, cand.row(sel[i]));
        }
    }
    return best;
}

DOptimalResult d_optimal(std::size_t runs, std::size_t k,
                         const std::vector<num::Monomial>& terms, std::uint64_t seed) {
    num::Rng rng = num::make_rng(seed);
    return d_optimal(runs, k, terms, rng);
}

}  // namespace ehdoe::doe
