#include "opt/anneal.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace ehdoe::opt {

namespace {

// The schedule the header documents.
constexpr double kTInitial = 1.0;
constexpr double kTFinal = 1e-5;
constexpr double kCooling = 0.95;     ///< geometric factor per epoch
constexpr double kStepInitial = 0.3;  ///< proposal sigma, box-width units
constexpr double kStepFinal = 0.01;

}  // namespace

// The restart chains advance in lockstep — every move, all chains propose
// and the proposals are evaluated as one batch — but each chain draws from
// its own RNG stream and never reads another chain's state, so the
// trajectory of chain r is identical whether the chains run interleaved, in
// parallel, or one after another.
OptResult simulated_annealing(const BatchObjective& f, const Bounds& bounds, const Vector& x0,
                              const AnnealOptions& opt) {
    bounds.validate();
    if (!f) throw std::invalid_argument("simulated_annealing: objective required");
    const std::size_t k = bounds.dimension();
    if (x0.size() != k)
        throw std::invalid_argument("simulated_annealing: x0 dimension mismatch");
    if (opt.restarts == 0)
        throw std::invalid_argument("simulated_annealing: restarts >= 1");

    CountedBatchObjective obj(f);
    const std::size_t chains = opt.restarts;

    struct Chain {
        num::Rng rng;
        Vector x;
        double fx = 0.0;
        Vector best_x;
        double best_f = 0.0;
    };
    std::vector<Chain> chain(chains);
    std::vector<Vector> starts;
    starts.reserve(chains);
    for (std::size_t r = 0; r < chains; ++r) {
        // Chain 0 keeps the historical stream for `seed`; later chains get
        // their own splitmix-spaced streams.
        chain[r].rng = num::make_rng(opt.seed + 0x9E3779B97F4A7C15ull * r);
        if (r == 0) {
            chain[r].x = bounds.clamp(x0);
        } else {
            auto unit = [&chain, r]() { return num::uniform(chain[r].rng, 0.0, 1.0); };
            chain[r].x = bounds.sample(unit);
        }
        starts.push_back(chain[r].x);
    }
    const std::vector<double> f0 = obj(starts);
    for (std::size_t r = 0; r < chains; ++r) {
        chain[r].fx = f0[r];
        chain[r].best_x = chain[r].x;
        chain[r].best_f = f0[r];
    }

    const std::size_t epochs = static_cast<std::size_t>(
        std::ceil(std::log(kTFinal / kTInitial) / std::log(kCooling)));

    OptResult res;
    double temp = kTInitial;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        ++res.iterations;
        // Step size anneals geometrically from kStepInitial to kStepFinal.
        const double frac = epochs > 1 ? static_cast<double>(epoch) /
                                             static_cast<double>(epochs - 1)
                                       : 1.0;
        const double sigma = kStepInitial * std::pow(kStepFinal / kStepInitial, frac);

        for (std::size_t m = 0; m < opt.moves_per_epoch; ++m) {
            std::vector<Vector> props;
            props.reserve(chains);
            for (std::size_t r = 0; r < chains; ++r) {
                Vector prop = chain[r].x;
                for (std::size_t g = 0; g < k; ++g) {
                    prop[g] +=
                        num::normal(chain[r].rng, 0.0, sigma * (bounds.hi[g] - bounds.lo[g]));
                }
                props.push_back(bounds.clamp(std::move(prop)));
            }
            const std::vector<double> fp = obj(props);
            for (std::size_t r = 0; r < chains; ++r) {
                const double delta = fp[r] - chain[r].fx;
                if (delta <= 0.0 ||
                    num::uniform(chain[r].rng, 0.0, 1.0) < std::exp(-delta / temp)) {
                    chain[r].x = std::move(props[r]);
                    chain[r].fx = fp[r];
                    if (chain[r].fx < chain[r].best_f) {
                        chain[r].best_f = chain[r].fx;
                        chain[r].best_x = chain[r].x;
                    }
                }
            }
        }
        temp *= kCooling;
    }

    std::size_t winner = 0;
    for (std::size_t r = 1; r < chains; ++r) {
        if (chain[r].best_f < chain[winner].best_f) winner = r;
    }
    res.x = std::move(chain[winner].best_x);
    res.value = chain[winner].best_f;
    res.evaluations = obj.count();
    res.converged = true;
    return res;
}

}  // namespace ehdoe::opt
