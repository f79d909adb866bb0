#include "opt/genetic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace ehdoe::opt {

namespace {

// The operators' settings the header documents.
constexpr std::size_t kTournament = 3;
constexpr double kCrossoverRate = 0.9;
constexpr double kBlxAlpha = 0.3;
constexpr double kMutationRate = 0.15;   ///< per-gene probability
constexpr double kMutationSigma = 0.15;  ///< in box-width units
constexpr std::size_t kElites = 2;

}  // namespace

// Every backend that honours the BatchObjective contract gives the same
// trajectory: child generation never consults fitness of the generation
// being built, so the RNG draw order and the evaluation count are those of
// a serial batch.
OptResult genetic_minimize(const BatchObjective& f, const Bounds& bounds,
                           const GeneticOptions& opt) {
    bounds.validate();
    if (!f) throw std::invalid_argument("genetic_minimize: objective required");
    if (opt.population < 4) throw std::invalid_argument("genetic_minimize: population >= 4");
    const std::size_t k = bounds.dimension();
    CountedBatchObjective obj(f);
    num::Rng rng = num::make_rng(opt.seed);
    auto unit = [&]() { return num::uniform(rng, 0.0, 1.0); };

    std::vector<Vector> pop(opt.population);
    for (std::size_t i = 0; i < opt.population; ++i) pop[i] = bounds.sample(unit);
    std::vector<double> fit = obj(pop);

    auto tournament_pick = [&]() -> std::size_t {
        std::size_t best = static_cast<std::size_t>(
            num::uniform_int(rng, 0, static_cast<int>(opt.population) - 1));
        for (std::size_t t = 1; t < kTournament; ++t) {
            const auto cand = static_cast<std::size_t>(
                num::uniform_int(rng, 0, static_cast<int>(opt.population) - 1));
            if (fit[cand] < fit[best]) best = cand;
        }
        return best;
    };

    OptResult res;
    for (std::size_t gen = 0; gen < opt.generations; ++gen) {
        ++res.iterations;
        // Elites carry over unchanged.
        std::vector<std::size_t> order(opt.population);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) { return fit[a] < fit[b]; });

        std::vector<Vector> next;
        std::vector<double> next_fit;
        next.reserve(opt.population);
        next_fit.reserve(opt.population);
        for (std::size_t e = 0; e < kElites; ++e) {
            next.push_back(pop[order[e]]);
            next_fit.push_back(fit[order[e]]);
        }

        // Generate the whole brood first (selection and variation only read
        // the *current* generation's fitness), then evaluate it as one
        // batch — this is where a parallel backend earns its keep.
        std::vector<Vector> brood;
        brood.reserve(opt.population - next.size());
        while (next.size() + brood.size() < opt.population) {
            const Vector& pa = pop[tournament_pick()];
            const Vector& pb = pop[tournament_pick()];
            Vector child(k);
            if (unit() < kCrossoverRate) {
                // BLX-alpha blend per gene.
                for (std::size_t g = 0; g < k; ++g) {
                    const double lo = std::min(pa[g], pb[g]);
                    const double hi = std::max(pa[g], pb[g]);
                    const double span = hi - lo;
                    child[g] = num::uniform(rng, lo - kBlxAlpha * span, hi + kBlxAlpha * span);
                }
            } else {
                child = unit() < 0.5 ? pa : pb;
            }
            for (std::size_t g = 0; g < k; ++g) {
                if (unit() < kMutationRate) {
                    child[g] += num::normal(rng, 0.0,
                                            kMutationSigma * (bounds.hi[g] - bounds.lo[g]));
                }
            }
            brood.push_back(bounds.clamp(std::move(child)));
        }
        const std::vector<double> brood_fit = obj(brood);
        for (std::size_t c = 0; c < brood.size(); ++c) {
            next.push_back(std::move(brood[c]));
            next_fit.push_back(brood_fit[c]);
        }
        pop = std::move(next);
        fit = std::move(next_fit);
    }

    const auto ib = static_cast<std::size_t>(
        std::min_element(fit.begin(), fit.end()) - fit.begin());
    res.x = pop[ib];
    res.value = fit[ib];
    res.evaluations = obj.count();
    res.converged = true;
    return res;
}

}  // namespace ehdoe::opt
