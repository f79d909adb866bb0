#include "opt/nelder_mead.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace ehdoe::opt {

SimplexPicks simplex_picks(const std::vector<double>& fv) {
    SimplexPicks p{0, 0, 0};
    for (std::size_t i = 1; i < fv.size(); ++i) {
        if (fv[i] < fv[p.best]) p.best = i;
        if (fv[i] >= fv[p.worst]) p.worst = i;
    }
    p.second_worst = p.worst == 0 ? 1 : 0;
    for (std::size_t i = p.second_worst + 1; i < fv.size(); ++i) {
        if (i != p.worst && fv[i] >= fv[p.second_worst]) p.second_worst = i;
    }
    return p;
}

OptResult nelder_mead(const Objective& f, const Bounds& bounds, const Vector& x0,
                      const NelderMeadOptions& opt) {
    bounds.validate();
    const std::size_t k = bounds.dimension();
    if (x0.size() != k) throw std::invalid_argument("nelder_mead: x0 dimension mismatch");
    CountedObjective obj(f);

    // Initial simplex: x0 plus one vertex per axis, displaced by
    // initial_step * box width (flipped if that leaves the box).
    std::vector<Vector> xs(k + 1, bounds.clamp(x0));
    for (std::size_t i = 0; i < k; ++i) {
        const double width = bounds.hi[i] - bounds.lo[i];
        double step = opt.initial_step * width;
        if (xs[i + 1][i] + step > bounds.hi[i]) step = -step;
        xs[i + 1][i] += step;
        xs[i + 1] = bounds.clamp(xs[i + 1]);
    }
    std::vector<double> fv(k + 1);
    for (std::size_t i = 0; i <= k; ++i) fv[i] = obj(xs[i]);

    OptResult res;
    // Work vectors for the trial points, reused across iterations; an
    // accepted trial point swaps buffers with the vertex it replaces.
    Vector cen(k), xr(k), xe(k), xc(k);
    // out = clamp(base + coef * (to - from)) coordinate by coordinate. Each
    // move below keeps its own operand order: a sign-flipped equivalent such
    // as -coef * (from - to) can round a zero to the other sign.
    const auto trial = [&](Vector& out, const Vector& base, double coef, const Vector& to,
                           const Vector& from) {
        for (std::size_t d = 0; d < k; ++d)
            out[d] = std::clamp(base[d] + coef * (to[d] - from[d]), bounds.lo[d], bounds.hi[d]);
    };

    for (res.iterations = 0; res.iterations < opt.max_iterations; ++res.iterations) {
        const auto [best, worst, second_worst] = simplex_picks(fv);

        if (std::fabs(fv[worst] - fv[best]) <
            opt.tol * (1.0 + std::fabs(fv[best]))) {
            res.converged = true;
            break;
        }

        // Centroid of all but the worst.
        cen.fill(0.0);
        for (std::size_t i = 0; i <= k; ++i) {
            if (i == worst) continue;
            for (std::size_t d = 0; d < k; ++d) cen[d] += xs[i][d];
        }
        for (std::size_t d = 0; d < k; ++d) cen[d] /= static_cast<double>(k);

        trial(xr, cen, opt.reflection, cen, xs[worst]);
        const double fr = obj(xr);
        if (fr < fv[best]) {
            trial(xe, cen, opt.expansion, cen, xs[worst]);
            const double fe = obj(xe);
            if (fe < fr) {
                std::swap(xs[worst], xe);
                fv[worst] = fe;
            } else {
                std::swap(xs[worst], xr);
                fv[worst] = fr;
            }
        } else if (fr < fv[second_worst]) {
            std::swap(xs[worst], xr);
            fv[worst] = fr;
        } else {
            // Contract (outside if the reflection helped at all).
            if (fr < fv[worst]) {
                trial(xc, cen, opt.contraction, xr, cen);
            } else {
                trial(xc, cen, -opt.contraction, cen, xs[worst]);
            }
            const double fc = obj(xc);
            if (fc < std::min(fr, fv[worst])) {
                std::swap(xs[worst], xc);
                fv[worst] = fc;
            } else {
                // Shrink toward the best vertex.
                for (std::size_t i = 0; i <= k; ++i) {
                    if (i == best) continue;
                    trial(xs[i], xs[best], opt.shrink, xs[i], xs[best]);
                    fv[i] = obj(xs[i]);
                }
            }
        }
    }

    const auto ibest = static_cast<std::size_t>(
        std::min_element(fv.begin(), fv.end()) - fv.begin());
    res.x = xs[ibest];
    res.value = fv[ibest];
    res.evaluations = obj.count();
    return res;
}

}  // namespace ehdoe::opt
