#include "sim/state_space.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "numerics/pair.hpp"

namespace ehdoe::sim {

PwlStateSpaceEngine::PwlStateSpaceEngine(PwlSystem system, PwlEngineOptions options)
    : sys_(std::move(system)),
      opt_(options),
      rows_(sys_.state_dim + sys_.state_dim % 2),
      x_(sys_.state_dim),
      x_next_(sys_.state_dim),
      scratch_a_(sys_.state_dim, sys_.state_dim),
      scratch_b_(sys_.state_dim, sys_.input_dim) {
    if (sys_.state_dim == 0) throw std::invalid_argument("PwlStateSpaceEngine: empty system");
    if (!sys_.assemble) throw std::invalid_argument("PwlStateSpaceEngine: missing assemble()");
    if (!sys_.switches.empty() && !sys_.branch_voltage) {
        throw std::invalid_argument("PwlStateSpaceEngine: switches present but no branch_voltage()");
    }
    if (sys_.switches.size() > 31) {
        throw std::invalid_argument("PwlStateSpaceEngine: at most 31 switches supported");
    }
    if (!(opt_.step > 0.0 && std::isfinite(opt_.step)))
        throw std::invalid_argument("PwlStateSpaceEngine: step must be positive and finite");
    seg_ = classify(x_);
}

void PwlStateSpaceEngine::set_state(Vector x) {
    if (x.size() != sys_.state_dim)
        throw std::invalid_argument("PwlStateSpaceEngine::set_state: dimension mismatch");
    x_ = std::move(x);
    seg_ = classify(x_);
}

void PwlStateSpaceEngine::invalidate_cache() {
    cache_.clear();
    held_ = nullptr;
}

std::uint32_t PwlStateSpaceEngine::classify(const Vector& x) const {
    std::uint32_t seg = 0;
    for (std::size_t i = 0; i < sys_.switches.size(); ++i) {
        if (sys_.branch_voltage(i, x) >= sys_.switches[i].v_on) seg |= (1u << i);
    }
    return seg;
}

const double* PwlStateSpaceEngine::discretization(std::uint32_t seg) {
    if (held_ && held_seg_ == seg) {
        ++stats_.cache_hits;
        return held_;
    }
    auto it = cache_.find(seg);
    if (it != cache_.end()) {
        ++stats_.cache_hits;
    } else {
        ++stats_.cache_misses;
        scratch_a_.fill(0.0);
        scratch_b_.fill(0.0);
        sys_.assemble(seg, scratch_a_, scratch_b_);
        const num::Discretized d = num::discretize_zoh(scratch_a_, scratch_b_, opt_.step);
        const std::size_t n = sys_.state_dim, m = sys_.input_dim;
        std::vector<double> columns(rows_ * (n + m), 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) columns[j * rows_ + i] = d.ad(i, j);
            for (std::size_t j = 0; j < m; ++j) columns[(n + j) * rows_ + i] = d.bd(i, j);
        }
        it = cache_.emplace(seg, std::move(columns)).first;
    }
    held_ = it->second.data();
    held_seg_ = seg;
    return held_;
}

namespace {

/// Rows [i, i + 2B) of Ad*x + Bd*u from the column-major [Ad Bd] (see
/// advance): B pairs of rows in B sums that do not wait on each other.
template <std::size_t B>
void sum_row_pairs(const double* ad, const double* bd, std::size_t rows, const Vector& x,
                   const Vector& u, std::size_t i, Vector& next) {
    using num::Pair;
    Pair sa[B] = {};
    Pair sb[B] = {};
    for (std::size_t j = 0; j < x.size(); ++j)
        for (std::size_t b = 0; b < B; ++b)
            sa[b] += num::load_pair(ad + j * rows + i + 2 * b) * x[j];
    for (std::size_t j = 0; j < u.size(); ++j)
        for (std::size_t b = 0; b < B; ++b)
            sb[b] += num::load_pair(bd + j * rows + i + 2 * b) * u[j];
    for (std::size_t b = 0; b < B; ++b) {
        const Pair s = sa[b] + sb[b];
        next[i + 2 * b] = s[0];
        if (i + 2 * b + 1 < next.size()) next[i + 2 * b + 1] = s[1];
    }
}

}  // namespace

void PwlStateSpaceEngine::advance(const double* columns, const Vector& u) {
    // Rows i and i + 1 in the two lanes of a pair: Ad*x and Bd*u each summed
    // from 0.0 over ascending columns and then added, the bits of
    // `Ad * x + Bd * u` row by row, without the two temporaries. Four pairs
    // run at a time, then two, then one; an odd state's last pair has a
    // zero padding row in its second lane.
    const double* bd = columns + x_.size() * rows_;
    const std::size_t pairs = rows_ / 2;
    std::size_t p = 0;
    for (; p + 4 <= pairs; p += 4) sum_row_pairs<4>(columns, bd, rows_, x_, u, 2 * p, x_next_);
    for (; p + 2 <= pairs; p += 2) sum_row_pairs<2>(columns, bd, rows_, x_, u, 2 * p, x_next_);
    if (p < pairs) sum_row_pairs<1>(columns, bd, rows_, x_, u, 2 * p, x_next_);
}

void PwlStateSpaceEngine::step(const Vector& u) {
    if (u.size() != sys_.input_dim)
        throw std::invalid_argument("PwlStateSpaceEngine::step: input dimension mismatch");

    std::uint32_t seg = seg_;
    for (int attempt = 0;; ++attempt) {
        advance(discretization(seg), u);
        const std::uint32_t seg_after = classify(x_next_);
        if (seg_after == seg || attempt >= opt_.max_retries || !opt_.retry_on_segment_change) {
            if (seg_after != seg) ++stats_.segment_changes;
            seg = seg_after;
            break;
        }
        // The trajectory crossed a diode threshold mid-step: redo the step
        // under the post-crossing segment. This is the "accept the segment
        // the step lands in" rule of [4]; one retry is almost always enough.
        ++stats_.retried_steps;
        ++stats_.segment_changes;
        seg = seg_after;
    }

    std::swap(x_, x_next_);
    seg_ = seg;
    t_ += opt_.step;
    ++stats_.steps;
}

void PwlStateSpaceEngine::run(double t_end, const std::function<Vector(double)>& input,
                              const std::function<void(double, const Vector&)>& observer) {
    if (!input) throw std::invalid_argument("PwlStateSpaceEngine::run: missing input()");
    // +inf would never return, and NaN would silently do nothing.
    if (!std::isfinite(t_end))
        throw std::invalid_argument("PwlStateSpaceEngine::run: t_end finite");
    while (t_ < t_end - 0.5 * opt_.step) {
        const Vector u = input(t_);
        step(u);
        if (observer) observer(t_, x_);
    }
}

}  // namespace ehdoe::sim
