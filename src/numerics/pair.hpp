// ehdoe/numerics/pair.hpp
//
// Two doubles in the two lanes of a SIMD register. GCC and Clang compile
// each arithmetic operator on a Pair to one packed instruction (addpd,
// mulpd, divpd on x86-64) that performs the scalar IEEE operation in each
// lane, so every lane keeps the bits of the scalar expression. sqrt() and
// select() below do the same for a square root and for `mask ? a : b`, so
// one function template can serve a lone double and a Pair: it calls
// select() qualified (it has a double overload) and sqrt() after
// `using std::sqrt; using num::sqrt;`.
#pragma once

#include <cmath>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ehdoe::num {

typedef double Pair __attribute__((vector_size(2 * sizeof(double))));

/// What comparing two Pairs gives: all bits set in each lane where the
/// comparison holds, none elsewhere.
using PairMask = decltype(Pair{} < Pair{});

inline Pair load_pair(const double* p) {
    Pair v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

/// Each lane's correctly rounded square root: one sqrtpd on x86-64, lane by
/// lane elsewhere.
inline Pair sqrt(Pair v) {
#if defined(__SSE2__)
    return (Pair)_mm_sqrt_pd((__m128d)v);
#else
    return Pair{std::sqrt(v[0]), std::sqrt(v[1])};
#endif
}

/// Each lane of `a` where `mask` holds and of `b` elsewhere, bits unchanged.
inline Pair select(PairMask mask, Pair a, Pair b) {
    return (Pair)((mask & (PairMask)a) | (~mask & (PairMask)b));
}
inline double select(bool mask, double a, double b) { return mask ? a : b; }

}  // namespace ehdoe::num
