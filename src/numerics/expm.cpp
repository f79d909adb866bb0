#include "numerics/expm.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "numerics/linalg.hpp"

namespace ehdoe::num {

Matrix expm(const Matrix& a) {
    if (!a.square()) throw std::invalid_argument("expm: matrix must be square");
    const std::size_t n = a.rows();

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
    // adds ak * c_k exactly as `nmat += ak * c[k]` would.
    Matrix ak = Matrix::identity(n);
    Matrix work(n, n);
    Matrix nmat = Matrix::identity(n);
    nmat *= c[0];
    Matrix dmat = nmat;
    double sign = 1.0;
    for (int k = 1; k <= 6; ++k) {
        multiply_into(ak, as, work);
        std::swap(ak, work);
        sign = -sign;
        const double cn = c[k];
        const double cd = c[k] * sign;
        const double* akd = ak.data();
        double* nd = nmat.data();
        double* dd = dmat.data();
        for (std::size_t e = 0; e < n * n; ++e) {
            nd[e] += akd[e] * cn;
            dd[e] += akd[e] * cd;
        }
    }

    Matrix f = LuFactor(std::move(dmat)).solve(nmat);

    // Squaring phase: e^A = (e^{A/2^s})^{2^s}.
    for (int i = 0; i < s; ++i) {
        multiply_into(f, f, work);
        std::swap(f, work);
    }
    return f;
}

Discretized discretize_zoh(const Matrix& a, const Matrix& b, double h) {
    if (!a.square()) throw std::invalid_argument("discretize_zoh: A must be square");
    if (b.rows() != a.rows()) throw std::invalid_argument("discretize_zoh: B row mismatch");
    const std::size_t n = a.rows();
    const std::size_t m = b.cols();

    // Augmented block matrix [A B; 0 0] * h.
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
