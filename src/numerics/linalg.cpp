#include "numerics/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace ehdoe::num {

// ---------------------------------------------------------------- LuFactor

LuFactor::LuFactor(Matrix a) : lu_(std::move(a)) { eliminate(); }

void LuFactor::factor(const Matrix& a) {
    lu_ = a;
    eliminate();
}

void LuFactor::eliminate() {
    if (!lu_.square()) throw std::invalid_argument("LuFactor: matrix must be square");
    const std::size_t n = lu_.rows();
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivot: largest |a_ik| in column k at or below the diagonal.
        std::size_t piv = k;
        double best = std::fabs(lu_(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            const double v = std::fabs(lu_(i, k));
            if (v > best) { best = v; piv = i; }
        }
        if (best < std::numeric_limits<double>::min() * 4) {
            throw std::runtime_error("LuFactor: matrix is numerically singular");
        }
        if (piv != k) {
            lu_.swap_rows(piv, k);
            std::swap(perm_[piv], perm_[k]);
        }
        const double pivot = lu_(k, k);
        for (std::size_t i = k + 1; i < n; ++i) {
            const double m = lu_(i, k) / pivot;
            lu_(i, k) = m;
            if (m == 0.0) continue;
            const double* urow = lu_.row_ptr(k);
            double* irow = lu_.row_ptr(i);
            for (std::size_t j = k + 1; j < n; ++j) irow[j] -= m * urow[j];
        }
    }
}

void LuFactor::substitute(const double* b, double* x) const {
    const std::size_t n = dim();
    // Apply permutation and forward-substitute L y = P b.
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[perm_[i]];
        const double* lrow = lu_.row_ptr(i);
        for (std::size_t j = 0; j < i; ++j) s -= lrow[j] * x[j];
        x[i] = s;
    }
    // Back-substitute U x = y.
    for (std::size_t ii = n; ii-- > 0;) {
        double s = x[ii];
        const double* urow = lu_.row_ptr(ii);
        for (std::size_t j = ii + 1; j < n; ++j) s -= urow[j] * x[j];
        x[ii] = s / urow[ii];
    }
}

Vector LuFactor::solve(const Vector& b) const {
    Vector x;
    solve(b, x);
    return x;
}

void LuFactor::solve(const Vector& b, Vector& x) const {
    if (b.size() != dim()) throw std::invalid_argument("LuFactor::solve: size mismatch");
    if (&b == &x) throw std::invalid_argument("LuFactor::solve: output aliases input");
    x.resize(dim());
    substitute(b.data(), x.data());
}

Matrix LuFactor::solve(const Matrix& b) const {
    if (b.rows() != dim()) throw std::invalid_argument("LuFactor::solve: size mismatch");
    const std::size_t n = dim();
    const std::size_t m = b.cols();
    Matrix x(n, m);
    // substitute() on every column at once, a row of x at a time: each
    // entry starts from the same b entry and subtracts the same products in
    // the same order, so every column has solve(Vector)'s bits.
    for (std::size_t i = 0; i < n; ++i) {
        double* xi = x.row_ptr(i);
        const double* bi = b.row_ptr(perm_[i]);
        std::copy(bi, bi + m, xi);
        const double* lrow = lu_.row_ptr(i);
        for (std::size_t j = 0; j < i; ++j) {
            const double l = lrow[j];
            const double* xj = x.row_ptr(j);
            for (std::size_t c = 0; c < m; ++c) xi[c] -= l * xj[c];
        }
    }
    for (std::size_t ii = n; ii-- > 0;) {
        double* xi = x.row_ptr(ii);
        const double* urow = lu_.row_ptr(ii);
        for (std::size_t j = ii + 1; j < n; ++j) {
            const double u = urow[j];
            const double* xj = x.row_ptr(j);
            for (std::size_t c = 0; c < m; ++c) xi[c] -= u * xj[c];
        }
        for (std::size_t c = 0; c < m; ++c) xi[c] /= urow[ii];
    }
    return x;
}

Matrix LuFactor::inverse() const { return solve(Matrix::identity(dim())); }

// ---------------------------------------------------------- CholeskyFactor

CholeskyFactor::CholeskyFactor(const Matrix& a) {
    if (!a.square()) throw std::invalid_argument("CholeskyFactor: matrix must be square");
    const std::size_t n = a.rows();
    l_ = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        double d = a(j, j);
        for (std::size_t k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
        if (d <= 0.0 || !std::isfinite(d)) {
            throw std::runtime_error("CholeskyFactor: matrix is not positive definite");
        }
        l_(j, j) = std::sqrt(d);
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = a(i, j);
            for (std::size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
            l_(i, j) = s / l_(j, j);
        }
    }
}

double CholeskyFactor::log_determinant() const {
    double d = 0.0;
    for (std::size_t i = 0; i < dim(); ++i) d += std::log(l_(i, i));
    return 2.0 * d;
}

// -------------------------------------------------------------- QrFactor

QrFactor::QrFactor(Matrix a) : qr_(std::move(a)) {
    const std::size_t m = qr_.rows();
    const std::size_t n = qr_.cols();
    if (m < n) throw std::invalid_argument("QrFactor: requires rows >= cols");
    beta_.assign(n, 0.0);

    for (std::size_t k = 0; k < n; ++k) {
        // Householder vector for column k, rows k..m-1.
        double norm = 0.0;
        for (std::size_t i = k; i < m; ++i) norm += qr_(i, k) * qr_(i, k);
        norm = std::sqrt(norm);
        if (norm == 0.0) { beta_[k] = 0.0; continue; }

        const double alpha = qr_(k, k) >= 0.0 ? -norm : norm;
        const double v0 = qr_(k, k) - alpha;
        // v = (v0, a_{k+1,k}, ..., a_{m-1,k}); store v/v0 below diagonal so the
        // implicit leading element is 1.
        beta_[k] = -v0 / alpha;  // beta = 2 / (v^T v) * v0^2, classic form
        for (std::size_t i = k + 1; i < m; ++i) qr_(i, k) /= v0;
        qr_(k, k) = alpha;

        // Apply the reflector to the trailing columns.
        for (std::size_t j = k + 1; j < n; ++j) {
            double s = qr_(k, j);
            for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * qr_(i, j);
            s *= beta_[k];
            qr_(k, j) -= s;
            for (std::size_t i = k + 1; i < m; ++i) qr_(i, j) -= s * qr_(i, k);
        }
    }
}

Vector QrFactor::qt_mul(const Vector& b) const {
    const std::size_t m = rows();
    const std::size_t n = cols();
    if (b.size() != m) throw std::invalid_argument("QrFactor::qt_mul: size mismatch");
    Vector y = b;
    for (std::size_t k = 0; k < n; ++k) {
        if (beta_[k] == 0.0) continue;
        double s = y[k];
        for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * y[i];
        s *= beta_[k];
        y[k] -= s;
        for (std::size_t i = k + 1; i < m; ++i) y[i] -= s * qr_(i, k);
    }
    return y;
}

Vector QrFactor::solve(const Vector& b, double rank_tol) const {
    const std::size_t n = cols();
    Vector y = qt_mul(b);
    // Rank check on the diagonal of R.
    double rmax = 0.0;
    for (std::size_t i = 0; i < n; ++i) rmax = std::max(rmax, std::fabs(qr_(i, i)));
    if (rmax == 0.0) throw std::runtime_error("QrFactor::solve: zero matrix");
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        const double rii = qr_(ii, ii);
        if (std::fabs(rii) < rank_tol * rmax) {
            throw std::runtime_error("QrFactor::solve: rank-deficient system (collinear model terms?)");
        }
        double s = y[ii];
        for (std::size_t j = ii + 1; j < n; ++j) s -= qr_(ii, j) * x[j];
        x[ii] = s / rii;
    }
    return x;
}

std::size_t QrFactor::rank(double rel_tol) const {
    double rmax = 0.0;
    for (std::size_t i = 0; i < cols(); ++i) rmax = std::max(rmax, std::fabs(qr_(i, i)));
    if (rmax == 0.0) return 0;
    std::size_t r = 0;
    for (std::size_t i = 0; i < cols(); ++i)
        if (std::fabs(qr_(i, i)) >= rel_tol * rmax) ++r;
    return r;
}

// --------------------------------------------------------- eigen_symmetric

SymmetricEigen eigen_symmetric(const Matrix& a_in, int max_sweeps) {
    if (!a_in.square()) throw std::invalid_argument("eigen_symmetric: matrix must be square");
    const std::size_t n = a_in.rows();

    // Symmetrize to wash out round-off asymmetry from callers.
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = 0.5 * (a_in(i, j) + a_in(j, i));

    Matrix v = Matrix::identity(n);

    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        double off = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j) off += a(i, j) * a(i, j);
        if (std::sqrt(off) < 1e-14 * (1.0 + a.norm_fro())) break;

        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                const double apq = a(p, q);
                if (std::fabs(apq) < 1e-300) continue;
                const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
                const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                                 (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;

                for (std::size_t k = 0; k < n; ++k) {
                    const double akp = a(k, p), akq = a(k, q);
                    a(k, p) = c * akp - s * akq;
                    a(k, q) = s * akp + c * akq;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double apk = a(p, k), aqk = a(q, k);
                    a(p, k) = c * apk - s * aqk;
                    a(q, k) = s * apk + c * aqk;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double vkp = v(k, p), vkq = v(k, q);
                    v(k, p) = c * vkp - s * vkq;
                    v(k, q) = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort ascending by eigenvalue, permuting eigenvector columns to match.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return a(x, x) < a(y, y); });

    SymmetricEigen out;
    out.eigenvalues = Vector(n);
    out.eigenvectors = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        out.eigenvalues[j] = a(order[j], order[j]);
        out.eigenvectors.set_col(j, v.col(order[j]));
    }
    return out;
}

}  // namespace ehdoe::num
