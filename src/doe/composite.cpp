#include "doe/composite.hpp"

#include <cmath>
#include <stdexcept>

#include "doe/factorial.hpp"

namespace ehdoe::doe {

namespace {

/// Cube core of the CCD: the textbook resolution-V (or better) fractions
/// for k in 5..8, which keep the quadratic model estimable with half the
/// cube runs (a quarter at k = 8), the full 2^k otherwise.
Design ccd_core(std::size_t k) {
    if (k == 5) return fractional_factorial(5, {"E=ABCD"}).design;            // 2^(5-1), res V
    if (k == 6) return fractional_factorial(6, {"F=ABCDE"}).design;           // 2^(6-1), res VI
    if (k == 7) return fractional_factorial(7, {"G=ABCDEF"}).design;          // 2^(7-1), res VII
    if (k == 8) return fractional_factorial(8, {"G=ABCD", "H=ABEF"}).design;  // 2^(8-2), res V
    return full_factorial_2level(k);
}

}  // namespace

double ccd_alpha_value(std::size_t k, const CcdOptions& options) {
    if (k == 0) throw std::invalid_argument("ccd_alpha_value: k >= 1");
    if (options.variant == CcdVariant::FaceCentred) return 1.0;
    return std::pow(static_cast<double>(ccd_core(k).runs()), 0.25);
}

Design central_composite(std::size_t k, const CcdOptions& options) {
    if (k == 0 || k > 12) throw std::invalid_argument("central_composite: k in 1..12");

    Design d = ccd_core(k);
    const double axial = ccd_alpha_value(k, options);
    const char* placement =
        options.variant == CcdVariant::Circumscribed ? "circumscribed" : "face-centred";
    d.kind = "ccd(" + std::string(placement) + ", alpha=" + std::to_string(axial) + ")";
    // Axial part.
    Design star;
    star.points = Matrix(2 * k, k);
    for (std::size_t f = 0; f < k; ++f) {
        star.points(2 * f, f) = axial;
        star.points(2 * f + 1, f) = -axial;
    }
    d.append(star);
    // Centre points.
    if (options.center_points > 0) d.add_center_points(options.center_points);
    return d;
}

Design box_behnken(std::size_t k, std::size_t center_points) {
    if (k < 3 || k > 12) throw std::invalid_argument("box_behnken: k in 3..12");
    const std::size_t pairs = k * (k - 1) / 2;
    Design d;
    d.kind = "box-behnken(k=" + std::to_string(k) + ")";
    d.points = Matrix(4 * pairs, k);
    std::size_t run = 0;
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = i + 1; j < k; ++j) {
            for (int si = -1; si <= 1; si += 2) {
                for (int sj = -1; sj <= 1; sj += 2) {
                    d.points(run, i) = si;
                    d.points(run, j) = sj;
                    ++run;
                }
            }
        }
    }
    if (center_points > 0) d.add_center_points(center_points);
    return d;
}

}  // namespace ehdoe::doe
