#include "sim/state_space.hpp"

#include <stdexcept>
#include <utility>

namespace ehdoe::sim {

PwlStateSpaceEngine::PwlStateSpaceEngine(PwlSystem system, PwlEngineOptions options)
    : sys_(std::move(system)),
      opt_(options),
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
    if (!(opt_.step > 0.0)) throw std::invalid_argument("PwlStateSpaceEngine: step must be positive");
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

const num::Discretized& PwlStateSpaceEngine::discretization(std::uint32_t seg) {
    if (held_ && held_seg_ == seg) {
        ++stats_.cache_hits;
        return *held_;
    }
    auto it = cache_.find(seg);
    if (it != cache_.end()) {
        ++stats_.cache_hits;
    } else {
        ++stats_.cache_misses;
        scratch_a_.fill(0.0);
        scratch_b_.fill(0.0);
        sys_.assemble(seg, scratch_a_, scratch_b_);
        it = cache_.emplace(seg, num::discretize_zoh(scratch_a_, scratch_b_, opt_.step)).first;
    }
    held_ = &it->second;
    held_seg_ = seg;
    return *held_;
}

void PwlStateSpaceEngine::advance(const num::Discretized& d, const Vector& u) {
    // Row by row, Ad*x and Bd*u each summed from 0.0 and then added: the
    // bits of `d.ad * x_ + d.bd * u`, without the two temporaries.
    const std::size_t n = x_.size();
    const std::size_t m = u.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double* arow = d.ad.row_ptr(i);
        double sa = 0.0;
        for (std::size_t j = 0; j < n; ++j) sa += arow[j] * x_[j];
        const double* brow = d.bd.row_ptr(i);
        double sb = 0.0;
        for (std::size_t j = 0; j < m; ++j) sb += brow[j] * u[j];
        x_next_[i] = sa + sb;
    }
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
    while (t_ < t_end - 0.5 * opt_.step) {
        const Vector u = input(t_);
        step(u);
        if (observer) observer(t_, x_);
    }
}

}  // namespace ehdoe::sim
