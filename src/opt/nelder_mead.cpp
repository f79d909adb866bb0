#include "opt/nelder_mead.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "numerics/pair.hpp"

namespace ehdoe::opt {

namespace {

/// `i` if `take`, else `pick`, by masking rather than by a branch.
std::size_t select(bool take, std::size_t i, std::size_t pick) {
    return pick ^ ((pick ^ i) & (std::size_t{0} - take));
}

/// The move whose points a run waits for.
enum class Move { Simplex, Reflect, Expand, Contract, Shrink, Done };

/// One start's run between rounds. Its rows live in the driver's flat
/// storage, reached through `x_`: the k + 1 vertices, then the reflection,
/// expansion and contraction points, then the centroid. An accepted trial
/// point swaps row pointers with the vertex it replaces.
class Run {
public:
    Run(double** rows, double* values, const Bounds& bounds, const NelderMeadOptions& opt,
        const Vector& x0)
        : k_(bounds.dimension()), lo_(bounds.lo.data()), hi_(bounds.hi.data()), opt_(opt),
          x_(rows), fv_(values) {
        // Initial simplex: x0 plus one vertex per axis, displaced by
        // initial_step * box width (flipped if that leaves the box).
        for (std::size_t i = 0; i <= k_; ++i) clamp_row(x_[i], x0.data());
        for (std::size_t i = 0; i < k_; ++i) {
            double* v = x_[i + 1];
            double step = opt_.initial_step * (hi_[i] - lo_[i]);
            if (v[i] + step > hi_[i]) step = -step;
            v[i] += step;
            clamp_row(v, v);
        }
    }

    /// Number of points the run waits for: a whole simplex, one trial
    /// point, the k shrunk vertices or none.
    std::size_t asked() const {
        switch (move_) {
            case Move::Simplex: return k_ + 1;
            case Move::Shrink: return k_;
            case Move::Done: return 0;
            default: return 1;
        }
    }

    /// Copies the asked() points into `out`, k apart; returns past them.
    double* pending(double* out) const {
        const auto put = [&](const double* row) { out = std::copy_n(row, k_, out); };
        switch (move_) {
            case Move::Simplex:
                for (std::size_t i = 0; i <= k_; ++i) put(x_[i]);
                break;
            case Move::Reflect: put(x_[kReflected + k_]); break;
            case Move::Expand: put(x_[kExpanded + k_]); break;
            case Move::Contract: put(x_[kContracted + k_]); break;
            case Move::Shrink:
                for (std::size_t i = 0; i <= k_; ++i) {
                    if (i != picks_.best) put(x_[i]);
                }
                break;
            case Move::Done: break;
        }
        return out;
    }

    /// Takes the values of the pending() points, in order, and carries the
    /// run on to its next move that needs points, or to its end. Returns
    /// past the values it took.
    const double* advance(const double* v) {
        const double* next = v + asked();
        evaluations_ += asked();
        const std::size_t worst = picks_.worst;
        switch (move_) {
            case Move::Simplex: std::copy(v, next, fv_); break;
            case Move::Reflect:
                fr_ = v[0];
                if (fr_ < fv_[picks_.best]) {
                    trial(kExpanded, cen(), opt_.expansion, cen(), x_[worst]);
                    move_ = Move::Expand;
                    return next;
                }
                if (fr_ < fv_[picks_.second_worst]) {
                    accept(kReflected, fr_);
                    break;
                }
                // Contract (outside if the reflection helped at all).
                if (fr_ < fv_[worst]) {
                    trial(kContracted, cen(), opt_.contraction, x_[kReflected + k_], cen());
                } else {
                    trial(kContracted, cen(), -opt_.contraction, cen(), x_[worst]);
                }
                move_ = Move::Contract;
                return next;
            case Move::Expand:
                if (v[0] < fr_) {
                    accept(kExpanded, v[0]);
                } else {
                    accept(kReflected, fr_);
                }
                break;
            case Move::Contract:
                if (v[0] < std::min(fr_, fv_[worst])) {
                    accept(kContracted, v[0]);
                    break;
                }
                // Shrink toward the best vertex.
                for (std::size_t i = 0; i <= k_; ++i) {
                    if (i == picks_.best) continue;
                    double* row = x_[i];
                    const double* best = x_[picks_.best];
                    for (std::size_t d = 0; d < k_; ++d)
                        row[d] = std::clamp(best[d] + opt_.shrink * (row[d] - best[d]), lo_[d],
                                            hi_[d]);
                }
                move_ = Move::Shrink;
                return next;
            case Move::Shrink:
                for (std::size_t i = 0; i <= k_; ++i) {
                    if (i != picks_.best) fv_[i] = *v++;
                }
                break;
            case Move::Done: return next;
        }
        if (move_ != Move::Simplex) ++iterations_;
        iterate();
        return next;
    }

    OptResult result() const {
        const auto ibest = static_cast<std::size_t>(std::min_element(fv_, fv_ + k_ + 1) - fv_);
        OptResult res;
        res.x = Vector(std::vector<double>(x_[ibest], x_[ibest] + k_));
        res.value = fv_[ibest];
        res.evaluations = evaluations_;
        res.iterations = iterations_;
        res.converged = converged_;
        return res;
    }

private:
    // Rows past the k + 1 vertices, as offsets from row k.
    static constexpr std::size_t kReflected = 1;
    static constexpr std::size_t kExpanded = 2;
    static constexpr std::size_t kContracted = 3;
    static constexpr std::size_t kCentroid = 4;

    double* cen() const { return x_[kCentroid + k_]; }

    void clamp_row(double* out, const double* in) const {
        for (std::size_t d = 0; d < k_; ++d) out[d] = std::clamp(in[d], lo_[d], hi_[d]);
    }

    // Row `slot` = clamp(base + coef * (to - from)) coordinate by
    // coordinate. Each move keeps its own operand order: a sign-flipped
    // equivalent such as -coef * (from - to) can round a zero to the other
    // sign.
    void trial(std::size_t slot, const double* base, double coef, const double* to,
               const double* from) const {
        double* out = x_[slot + k_];
        for (std::size_t d = 0; d < k_; ++d)
            out[d] = std::clamp(base[d] + coef * (to[d] - from[d]), lo_[d], hi_[d]);
    }

    void accept(std::size_t slot, double value) {
        std::swap(x_[picks_.worst], x_[slot + k_]);
        fv_[picks_.worst] = value;
    }

    // Starts the next iteration, if the run goes on: the stop tests, the
    // picks, the centroid of all but the worst and the reflection.
    void iterate() {
        if (iterations_ >= opt_.max_iterations) {
            move_ = Move::Done;
            return;
        }
        picks_ = simplex_picks(fv_, k_ + 1);
        const double lowest = fv_[picks_.best];
        if (std::fabs(fv_[picks_.worst] - lowest) < opt_.tol * (1.0 + std::fabs(lowest))) {
            converged_ = true;
            move_ = Move::Done;
            return;
        }
        // Each coordinate summed from 0.0 in vertex order, two coordinates
        // per Pair; the worst is left out by splitting the loop around it.
        const std::size_t w = picks_.worst;
        const double kd = static_cast<double>(k_);
        double* c = cen();
        std::size_t d = 0;
        for (; d + 2 <= k_; d += 2) {
            num::Pair s = {0.0, 0.0};
            for (std::size_t i = 0; i < w; ++i) s += num::load_pair(x_[i] + d);
            for (std::size_t i = w + 1; i <= k_; ++i) s += num::load_pair(x_[i] + d);
            num::store_pair(c + d, s / kd);
        }
        if (d < k_) {
            double s = 0.0;
            for (std::size_t i = 0; i < w; ++i) s += x_[i][d];
            for (std::size_t i = w + 1; i <= k_; ++i) s += x_[i][d];
            c[d] = s / kd;
        }
        trial(kReflected, c, opt_.reflection, c, x_[picks_.worst]);
        move_ = Move::Reflect;
    }

    std::size_t k_;
    const double* lo_;
    const double* hi_;
    const NelderMeadOptions& opt_;
    double** x_;
    double* fv_;
    Move move_ = Move::Simplex;
    SimplexPicks picks_{0, 0, 0};
    double fr_ = 0.0;  ///< the reflection's value while it waits on a second point
    std::size_t iterations_ = 0;
    std::size_t evaluations_ = 0;
    bool converged_ = false;
};

}  // namespace

SimplexPicks simplex_picks(const double* fv, std::size_t n) {
    // `low` and `high` track the picks' values for the comparisons. As
    // minimum and maximum (minsd/maxsd on x86-64) they keep a pick's value
    // when v is NaN or ties it, which decides no comparison differently.
    std::size_t best = 0, worst = 0;
    double low = fv[0], high = fv[0];
    for (std::size_t i = 1; i < n; ++i) {
        const double v = fv[i];
        best = select(v < low, i, best);
        worst = select(v >= high, i, worst);
        low = v < low ? v : low;
        high = v > high ? v : high;
    }
    // Second-worst: the same scan around the worst.
    std::size_t second = worst == 0 ? 1 : 0;
    high = fv[second];
    const auto scan = [&](std::size_t from, std::size_t to) {
        for (std::size_t i = from; i < to; ++i) {
            const double v = fv[i];
            second = select(v >= high, i, second);
            high = v > high ? v : high;
        }
    };
    scan(second + 1, worst);
    scan(std::max(second, worst) + 1, n);
    return SimplexPicks{best, worst, second};
}

std::vector<OptResult> nelder_mead_starts(const BlockObjective& f, const Bounds& bounds,
                                          const std::vector<Vector>& starts,
                                          const NelderMeadOptions& opt) {
    bounds.validate();
    const std::size_t k = bounds.dimension();
    for (const Vector& x0 : starts) {
        if (x0.size() != k) throw std::invalid_argument("nelder_mead: x0 dimension mismatch");
    }
    const std::size_t n = starts.size();
    const std::size_t rows = k + 5;  // vertices, three trial points, centroid
    std::vector<double> storage(n * rows * k);
    std::vector<double*> row(n * rows);
    for (std::size_t r = 0; r < row.size(); ++r) row[r] = storage.data() + r * k;
    std::vector<double> fv(n * (k + 1));
    std::vector<Run> runs;
    runs.reserve(n);
    for (std::size_t s = 0; s < n; ++s)
        runs.emplace_back(row.data() + s * rows, fv.data() + s * (k + 1), bounds, opt, starts[s]);

    // A round asks for at most a whole simplex per start.
    std::vector<double> points(n * (k + 1) * k);
    std::vector<double> values(n * (k + 1));
    for (;;) {
        double* end = points.data();
        for (const Run& r : runs) end = r.pending(end);
        const auto count = static_cast<std::size_t>(end - points.data()) / k;
        if (count == 0) break;
        f(points.data(), count, values.data());
        const double* v = values.data();
        for (Run& r : runs) v = r.advance(v);
    }

    std::vector<OptResult> out;
    out.reserve(n);
    for (const Run& r : runs) out.push_back(r.result());
    return out;
}

OptResult nelder_mead(const Objective& f, const Bounds& bounds, const Vector& x0,
                      const NelderMeadOptions& opt) {
    Vector x(bounds.dimension());
    const BlockObjective each = [&](const double* points, std::size_t count, double* values) {
        for (std::size_t i = 0; i < count; ++i) {
            std::copy_n(points + i * x.size(), x.size(), x.begin());
            values[i] = f(x);
        }
    };
    return std::move(nelder_mead_starts(each, bounds, {x0}, opt).front());
}

}  // namespace ehdoe::opt
