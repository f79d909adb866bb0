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
// allocated per product, per term or per column. The products sum blocks
// of 8 output columns in registers, and the Padé solve D^-1 N substitutes
// all n columns of N row by row (LuFactor::solve(Matrix)). Every entry is
// computed by the same operations in the same order as the textbook
// expressions with Matrix temporaries and column-by-column solves, so the
// bits are theirs: goldens in test_expm and test_harvester_system pin them,
// signed zeros included.
#pragma once

#include "numerics/matrix.hpp"

namespace ehdoe::num {

/// e^A for a square matrix, scaling-and-squaring + Padé(6,6).
Matrix expm(const Matrix& a);

/// Discretization of a continuous LTI system (A, B) with step h under a
/// zero-order hold:  x_{k+1} = Ad x_k + Bd u_k, with
///   Ad = e^{Ah},  Bd = (\int_0^h e^{As} ds) B.
/// Computed jointly via the block-matrix exponential
///   exp([A B; 0 0] h) = [Ad Bd; 0 I],
/// which is exact and handles singular A.
struct Discretized {
    Matrix ad;
    Matrix bd;
};
Discretized discretize_zoh(const Matrix& a, const Matrix& b, double h);

}  // namespace ehdoe::num
