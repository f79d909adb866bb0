// ehdoe/numerics/linalg.hpp
//
// Dense factorizations and solvers: LU with partial pivoting, Cholesky,
// Householder QR (used for least squares / RSM fitting) and a cyclic Jacobi
// eigen-solver for symmetric matrices (used by the response-surface
// canonical analysis and by design diagnostics).
#pragma once

#include <optional>
#include <vector>

#include "numerics/matrix.hpp"

namespace ehdoe::num {

/// LU factorization with partial pivoting: P*A = L*U.
/// Factorization is stored packed (L below the diagonal with implicit unit
/// diagonal, U on and above). The constructor and factor() run one
/// elimination, and every solve runs one substitution, so a factorization
/// reused through factor() and solve(b, x) is bitwise equal to a fresh one
/// and allocates nothing once it has held a matrix of its size.
class LuFactor {
public:
    /// No factorization yet; call factor() before solving.
    LuFactor() = default;
    /// Factor `a`; throws std::invalid_argument if `a` is not square and
    /// std::runtime_error if it is numerically singular.
    explicit LuFactor(Matrix a);

    /// Factor `a` into the storage this object already owns. Throws like the
    /// constructor; after a throw no usable factorization is held.
    void factor(const Matrix& a);

    std::size_t dim() const { return lu_.rows(); }
    /// Solve A x = b.
    Vector solve(const Vector& b) const;
    /// Solve A x = b into `x` (resized to dim(); must not be `b`).
    void solve(const Vector& b, Vector& x) const;
    /// Solve A X = B for every column of B at once, row by row: forward
    /// substitution over all columns in permuted row order, then back
    /// substitution and the pivot division. Each column gets the bits
    /// solve(Vector) gives it, as each entry sees the same subtractions in
    /// the same order; inverse() runs through here.
    Matrix solve(const Matrix& b) const { return solve(b, dim()); }
    /// solve(Matrix) for A = [P Q; 0 I] and B = [R S; 0 I] whose identity
    /// blocks start at row `live` (B square, its block exactly +0 and 1):
    /// X = [P^-1 R  P^-1 (S - Q); 0 I]. Only X's first `live` rows are
    /// substituted, each subtracting its row's eliminated Q last. The pivot
    /// search never picks a row of the block, and the terms left out are
    /// ±0: while B holds no -0.0 and every entry stays finite, each entry
    /// has solve(Matrix)'s bits. expm's Padé solve runs through here.
    Matrix solve(const Matrix& b, std::size_t live) const;
    /// Explicit inverse (prefer solve()).
    Matrix inverse() const;

private:
    /// Partial-pivoting elimination of lu_ in place.
    void eliminate();
    /// Forward and back substitution for one right-hand side of dim()
    /// entries.
    void substitute(const double* b, double* x) const;

    Matrix lu_;
    std::vector<std::size_t> perm_;
};

/// Cholesky factorization A = L L^T of a symmetric positive definite matrix.
class CholeskyFactor {
public:
    /// Throws std::runtime_error if `a` is not (numerically) SPD.
    explicit CholeskyFactor(const Matrix& a);

    std::size_t dim() const { return l_.rows(); }
    double log_determinant() const;
    const Matrix& l() const { return l_; }

private:
    Matrix l_;
};

/// Householder QR factorization A = Q R (A is m x n, m >= n).
/// Primary consumer is ordinary least squares in the RSM fitter.
class QrFactor {
public:
    explicit QrFactor(Matrix a);

    std::size_t rows() const { return qr_.rows(); }
    std::size_t cols() const { return qr_.cols(); }

    /// Least-squares solution of min ||A x - b||_2. Throws if rank deficient
    /// beyond `rank_tol` (relative to the largest |r_ii|).
    Vector solve(const Vector& b, double rank_tol = 1e-12) const;

    /// Apply Q^T to a vector (length m).
    Vector qt_mul(const Vector& b) const;

    /// Numerical rank with relative tolerance on |r_ii|.
    std::size_t rank(double rel_tol = 1e-12) const;

private:
    Matrix qr_;           // Householder vectors below diagonal, R on/above.
    std::vector<double> beta_;  // Householder scalars.
};

/// Result of the symmetric eigendecomposition A = V diag(w) V^T.
struct SymmetricEigen {
    Vector eigenvalues;   ///< ascending order
    Matrix eigenvectors;  ///< columns correspond to eigenvalues
};

/// Cyclic Jacobi eigen-solver for a symmetric matrix. `a` is symmetrized
/// internally; convergence to machine precision for the small matrices used
/// here (k <= ~20 factors).
SymmetricEigen eigen_symmetric(const Matrix& a, int max_sweeps = 64);

}  // namespace ehdoe::num
