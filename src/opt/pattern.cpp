#include "opt/pattern.hpp"

#include <stdexcept>

namespace ehdoe::opt {

namespace {

// The settings pattern_search documents, in box-width units.
constexpr double kInitialStep = 0.25;
constexpr double kShrink = 0.5;
constexpr double kMinStep = 1e-8;
constexpr std::size_t kMaxIterations = 2000;

}  // namespace

OptResult pattern_search(const Objective& f, const Bounds& bounds, const Vector& x0) {
    bounds.validate();
    const std::size_t k = bounds.dimension();
    if (x0.size() != k) throw std::invalid_argument("pattern_search: x0 dimension mismatch");
    CountedObjective obj(f);

    Vector base = bounds.clamp(x0);
    double fbase = obj(base);
    double step = kInitialStep;

    // Exploratory move around `from`, returns improved point/value.
    auto explore = [&](Vector from, double ffrom) {
        for (std::size_t i = 0; i < k; ++i) {
            const double width = bounds.hi[i] - bounds.lo[i];
            for (double sign : {+1.0, -1.0}) {
                Vector trial = from;
                trial[i] += sign * step * width;
                trial = bounds.clamp(std::move(trial));
                const double ft = obj(trial);
                if (ft < ffrom) {
                    from = std::move(trial);
                    ffrom = ft;
                    break;
                }
            }
        }
        return std::pair<Vector, double>(std::move(from), ffrom);
    };

    OptResult res;
    for (res.iterations = 0; res.iterations < kMaxIterations; ++res.iterations) {
        auto [probe, fprobe] = explore(base, fbase);
        if (fprobe < fbase) {
            // Pattern move: leap in the improving direction, then explore.
            Vector leap = probe;
            leap.axpy(1.0, probe - base);
            leap = bounds.clamp(std::move(leap));
            const double fleap_base = obj(leap);
            auto [probe2, fprobe2] = explore(leap, fleap_base);
            base = std::move(probe);
            fbase = fprobe;
            if (fprobe2 < fbase) {
                base = std::move(probe2);
                fbase = fprobe2;
            }
        } else {
            step *= kShrink;
            if (step < kMinStep) {
                res.converged = true;
                break;
            }
        }
    }

    res.x = std::move(base);
    res.value = fbase;
    res.evaluations = obj.count();
    return res;
}

}  // namespace ehdoe::opt
