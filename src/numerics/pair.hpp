// ehdoe/numerics/pair.hpp
//
// Two doubles in the two lanes of a SIMD register. GCC and Clang compile
// each arithmetic operator on a Pair to one packed instruction (addpd,
// mulpd, divpd on x86-64) that performs the scalar IEEE operation in each
// lane, so every lane keeps the bits of the scalar expression.
#pragma once

#include <cstring>

namespace ehdoe::num {

typedef double Pair __attribute__((vector_size(2 * sizeof(double))));

inline Pair load_pair(const double* p) {
    Pair v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

}  // namespace ehdoe::num
