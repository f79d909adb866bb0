#include "sim/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "numerics/pair.hpp"

namespace ehdoe::sim {

TransientEngine::TransientEngine(num::OdeRhs rhs, std::size_t state_dim, TransientOptions options)
    : rhs_(std::move(rhs)),
      opt_(options),
      x_(state_dim),
      fx_(state_dim),
      fy_(state_dim),
      y_(state_dim),
      yt_(state_dim),
      ft_(state_dim),
      g_(state_dim),
      dx_(state_dim),
      dy_(state_dim),
      fcols_(state_dim, state_dim),
      jac_(state_dim, state_dim) {
    if (!rhs_) throw std::invalid_argument("TransientEngine: missing rhs");
    if (state_dim == 0) throw std::invalid_argument("TransientEngine: empty state");
    if (!(opt_.step > 0.0 && std::isfinite(opt_.step)))
        throw std::invalid_argument("TransientEngine: step must be positive and finite");
    if (opt_.jacobian_reuse < 1) throw std::invalid_argument("TransientEngine: jacobian_reuse >= 1");
    // A zero or NaN perturbation makes every Jacobian column 0/0, which the
    // LU does not flag, and no Newton iteration leaves Euler's predictor.
    if (!(opt_.fd_eps > 0.0 && std::isfinite(opt_.fd_eps)))
        throw std::invalid_argument("TransientEngine: fd_eps > 0 and finite");
    if (opt_.max_newton_iters < 1)
        throw std::invalid_argument("TransientEngine: max_newton_iters >= 1");
}

void TransientEngine::set_state(Vector x) {
    if (x.size() != x_.size())
        throw std::invalid_argument("TransientEngine::set_state: dimension mismatch");
    x_ = std::move(x);
}

void TransientEngine::step() {
    const std::size_t n = x_.size();
    const double h = opt_.step;
    const double tn = t_ + h;

    rhs_(t_, x_, fx_);
    ++stats_.rhs_evaluations;

    // Predictor: explicit Euler.
    y_ = x_;
    y_.axpy(h, fx_);

    bool have_lu = false;
    int iters_since_jacobian = opt_.jacobian_reuse;  // force a build on entry

    bool converged = false;
    rhs_(tn, y_, fy_);
    ++stats_.rhs_evaluations;

    for (int it = 0; it < opt_.max_newton_iters; ++it) {
        ++stats_.newton_iterations;

        for (std::size_t i = 0; i < n; ++i) g_[i] = y_[i] - x_[i] - 0.5 * h * (fx_[i] + fy_[i]);
        const double gnorm = g_.norm_inf();
        if (gnorm < opt_.newton_tol * (1.0 + y_.norm_inf())) {
            converged = true;
            break;
        }

        if (iters_since_jacobian >= opt_.jacobian_reuse || !have_lu) {
            // J = I - h/2 * df/dy by forward differences — the expensive part
            // (n extra RHS evaluations + one LU) the PWL engine avoids. One
            // column call gives fcols_(i, j) = f_i(tn, y + dy_j e_j); J is
            // filled two entries of a row at a time, each lane the scalar
            // expression.
            for (std::size_t j = 0; j < n; ++j) dy_[j] = opt_.fd_eps * (1.0 + std::fabs(y_[j]));
            rhs_.columns(tn, y_, dy_, fcols_);
            stats_.rhs_evaluations += n;
            for (std::size_t i = 0; i < n; ++i) {
                const double* fp = fcols_.row_ptr(i);
                double* jrow = jac_.row_ptr(i);
                const double fyi = fy_[i];
                const auto entry = [&](auto diag, auto fpj, auto dyj) {
                    return diag - 0.5 * h * (fpj - fyi) / dyj;
                };
                std::size_t j = 0;
                for (; j + 1 < n; j += 2) {
                    const num::Pair diag{i == j ? 1.0 : 0.0, i == j + 1 ? 1.0 : 0.0};
                    const num::Pair dyj = num::load_pair(dy_.data() + j);
                    num::store_pair(jrow + j, entry(diag, num::load_pair(fp + j), dyj));
                }
                if (j < n) jrow[j] = entry(i == j ? 1.0 : 0.0, fp[j], dy_[j]);
            }
            ++stats_.jacobian_builds;
            try {
                lu_.factor(jac_);
                ++stats_.lu_factorizations;
            } catch (const std::runtime_error&) {
                break;  // singular iteration matrix; accept best iterate
            }
            have_lu = true;
            iters_since_jacobian = 0;
        }
        ++iters_since_jacobian;

        lu_.solve(g_, dx_);

        // Damped update.
        double lambda = 1.0;
        for (int back = 0; back < 6; ++back) {
            yt_ = y_;
            yt_.axpy(-lambda, dx_);
            rhs_(tn, yt_, ft_);
            ++stats_.rhs_evaluations;
            double gt = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                gt = std::max(gt, std::fabs(yt_[i] - x_[i] - 0.5 * h * (fx_[i] + ft_[i])));
            if (gt < gnorm || back == 5) {
                std::swap(y_, yt_);
                std::swap(fy_, ft_);
                break;
            }
            lambda *= 0.5;
        }
    }

    if (!converged) ++stats_.nonconverged_steps;
    std::swap(x_, y_);
    t_ = tn;
    ++stats_.steps;
}

void TransientEngine::run(double t_end, const std::function<void(double, const Vector&)>& observer) {
    // +inf would never return, and NaN would silently do nothing.
    if (!std::isfinite(t_end)) throw std::invalid_argument("TransientEngine::run: t_end finite");
    while (t_ < t_end - 0.5 * opt_.step) {
        step();
        if (observer) observer(t_, x_);
    }
}

}  // namespace ehdoe::sim
