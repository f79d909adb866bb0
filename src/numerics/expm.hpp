// ehdoe/numerics/expm.hpp
//
// Matrix exponential via scaling-and-squaring with a diagonal Padé(6,6)
// approximant. The explicit linearized state-space engine ([4], TCAD 2012)
// advances an LTI segment exactly with
//
//   x(t+h) = e^{Ah} x(t) + (integral term) B u
//
// so e^{Ah} (and the associated integral operator) are the workhorses of the
// fast simulator. Matrices are small (order < ~30), so dense Padé is ideal.
//
// The products, Padé sums and squarings run in a few work matrices
// allocated once per call (num::multiply_into, in-place sums); nothing is
// allocated per product, per term or per column. The products sum two rows
// at a time in blocks of 8 output columns in registers, and the Padé solve
// D^-1 N substitutes all columns of N row by row (LuFactor::solve(Matrix,
// live)).
//
// A matrix whose last rows are zero, like discretize_zoh's [A B; 0 0] with
// its m input rows, keeps the form [X Y; 0 I] through the Padé solve and
// every square, so all of them run on the leading rows over the leading
// terms, and the last rows are written as [+0 | I]: for a 14-state,
// 3-input system a square takes 14 * 14 * 17 multiply-adds, not 17^3. Every
// entry is still computed by the same operations in the same order as the
// textbook expressions on the whole matrix, with Matrix temporaries and
// column-by-column solves; a term left out would add ±0 to a sum that
// cannot be -0.0 (a square whose Y overflowed runs in full, as inf * 0 is
// NaN). So the bits are theirs: test_expm checks them against that
// reference, and goldens in test_expm and test_harvester_system pin them,
// signed zeros included.
#pragma once

#include "numerics/matrix.hpp"

namespace ehdoe::num {

/// e^A for a square matrix, scaling-and-squaring + Padé(6,6). Throws
/// std::runtime_error ("expm: matrix norm too large") for an infinite or
/// NaN entry and for a norm that would take more than 60 squarings.
Matrix expm(const Matrix& a);

/// Discretization of a continuous LTI system (A, B) with step h under a
/// zero-order hold:  x_{k+1} = Ad x_k + Bd u_k, with
///   Ad = e^{Ah},  Bd = (\int_0^h e^{As} ds) B.
/// Computed jointly via the block-matrix exponential
///   exp([A B; 0 0] h) = [Ad Bd; 0 I],
/// which is exact and handles singular A. A non-finite entry or step
/// throws as expm does.
struct Discretized {
    Matrix ad;
    Matrix bd;
};
Discretized discretize_zoh(const Matrix& a, const Matrix& b, double h);

}  // namespace ehdoe::num
