#include "numerics/expm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "numerics/linalg.hpp"

namespace ehdoe::num {

namespace {

/// True when the first `live` rows of `m` are finite past column `live`.
bool finite_right_block(const Matrix& m, std::size_t live) {
    for (std::size_t i = 0; i < live; ++i) {
        const double* row = m.row_ptr(i);
        if (!std::all_of(row + live, row + m.cols(), [](double v) { return std::isfinite(v); }))
            return false;
    }
    return true;
}

}  // namespace

Matrix expm(const Matrix& a) {
    if (!a.square()) throw std::invalid_argument("expm: matrix must be square");
    const std::size_t n = a.rows();
    // A NaN entry fails as an infinite one does: norm_inf's max drops a NaN
    // row sum, and the result would be NaN without a word.
    if (!std::all_of(a.data(), a.data() + n * n, [](double v) { return std::isfinite(v); }))
        throw std::runtime_error("expm: matrix norm too large");

    // Rows from `live` on are zero (either sign): A = [P Q; 0 0], as in
    // discretize_zoh's [A B; 0 0]. Then every Padé power is [P^k P^(k-1) Q;
    // 0 0], N, D and F = D^-1 N are [. .; 0 I], and so is each square:
    // [X Y; 0 I]^2 = [X X  X Y + Y; 0 I]. So the products, the Padé sums and
    // the solve run on the first `live` rows over k < live, each square adds
    // Y, and the last rows stay [+0 | I]. Every entry keeps the bits of the
    // whole-matrix steps: a term left out multiplies a structural ±0 by a
    // finite entry, and a sum that starts at +0.0 is never -0.0, so adding
    // ±0 leaves it as it is; Y's term, times 1, comes after every k < live
    // as in the ascending-k sum (LuFactor::solve(Matrix, live) gives the
    // solve's reasons). A general matrix has live = n and skips nothing.
    std::size_t live = n;
    while (live > 0) {
        const double* row = a.row_ptr(live - 1);
        if (std::any_of(row, row + n, [](double v) { return v != 0.0; })) break;
        --live;
    }

    // Scaling: bring ||A/2^s|| below ~0.5 so the Padé(6,6) approximant is
    // accurate to machine precision.
    const double norm = a.norm_inf();
    int s = 0;
    if (norm > 0.5) {
        // Checked as a double: an infinite norm gives an infinite exponent,
        // which no int holds.
        const double squarings = std::ceil(std::log2(norm / 0.5));
        if (!(squarings <= 60.0)) throw std::runtime_error("expm: matrix norm too large");
        s = static_cast<int>(squarings);
    }
    const double scale = std::ldexp(1.0, -s);  // 2^-s
    Matrix as = a * scale;

    // Padé(6,6) coefficients for exp: c_k = (2q-k)! q! / ((2q)! k! (q-k)!).
    static const double c[7] = {
        1.0,
        1.0 / 2.0,
        5.0 / 44.0,
        1.0 / 66.0,
        1.0 / 792.0,
        1.0 / 15840.0,
        1.0 / 665280.0,
    };

    // N = sum c_k A^k, D = sum c_k (-A)^k, accumulated in place: each entry
    // adds ak * c_k exactly as `nmat += ak * c[k]` would. Their last rows
    // keep c_0 I's [+0 | I]; the powers' last rows are never read.
    Matrix ak = Matrix::identity(n);
    Matrix work(n, n);
    Matrix nmat = Matrix::identity(n);
    nmat *= c[0];
    Matrix dmat = nmat;
    double sign = 1.0;
    for (int k = 1; k <= 6; ++k) {
        multiply_into(ak, as, live, live, work);
        std::swap(ak, work);
        sign = -sign;
        const double cn = c[k];
        const double cd = c[k] * sign;
        const double* akd = ak.data();
        double* nd = nmat.data();
        double* dd = dmat.data();
        for (std::size_t e = 0; e < live * n; ++e) {
            nd[e] += akd[e] * cn;
            dd[e] += akd[e] * cd;
        }
    }

    Matrix f = LuFactor(std::move(dmat)).solve(nmat, live);

    // Squaring phase: e^A = (e^{A/2^s})^{2^s}. Up to here every entry is
    // finite (||A / 2^s|| <= 0.5 bounds the powers, N, D and F), but a
    // square can overflow. The terms a square leaves out are Y times the
    // +0s of [0 I], and inf * 0 is NaN, so once Y holds an inf or a NaN the
    // squares run over all rows and every k, as the full product does.
    work = f;  // the squares' last rows are F's [+0 | I]
    for (int i = 0; i < s; ++i) {
        if (finite_right_block(f, live)) {
            multiply_into(f, f, live, live, work);
            for (std::size_t r = 0; r < live; ++r) {
                const double* y = f.row_ptr(r);
                double* out = work.row_ptr(r);
                for (std::size_t j = live; j < n; ++j) out[j] += y[j];
            }
        } else {
            multiply_into(f, f, n, n, work);
        }
        std::swap(f, work);
    }
    return f;
}

Discretized discretize_zoh(const Matrix& a, const Matrix& b, double h) {
    if (!a.square()) throw std::invalid_argument("discretize_zoh: A must be square");
    if (b.rows() != a.rows()) throw std::invalid_argument("discretize_zoh: B row mismatch");
    const std::size_t n = a.rows();
    const std::size_t m = b.cols();

    // Augmented block matrix [A B; 0 0] * h. A non-finite step makes a
    // non-finite entry (0 * inf is NaN), which expm rejects.
    Matrix blk(n + m, n + m);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) blk(i, j) = a(i, j) * h;
        for (std::size_t j = 0; j < m; ++j) blk(i, n + j) = b(i, j) * h;
    }
    Matrix e = expm(blk);

    Discretized out;
    out.ad = Matrix(n, n);
    out.bd = Matrix(n, m);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) out.ad(i, j) = e(i, j);
        for (std::size_t j = 0; j < m; ++j) out.bd(i, j) = e(i, n + j);
    }
    return out;
}

}  // namespace ehdoe::num
