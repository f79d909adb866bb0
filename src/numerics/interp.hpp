// ehdoe/numerics/interp.hpp
//
// 1-D interpolation: linear lookup tables and natural cubic splines.
// Used for the magnet-separation -> resonant-frequency calibration map of
// the tunable harvester and for the drifting vibration line's frequency.
#pragma once

#include <vector>

namespace ehdoe::num {

/// Piecewise-linear interpolation over strictly increasing abscissae.
/// Queries outside the range are clamped (flat extrapolation) by default.
class LinearTable {
public:
    LinearTable() = default;
    /// Throws std::invalid_argument unless xs is strictly increasing and the
    /// two arrays have equal size >= 2.
    LinearTable(std::vector<double> xs, std::vector<double> ys);

    double operator()(double x) const;

    double x_min() const { return xs_.front(); }
    double x_max() const { return xs_.back(); }
    std::size_t size() const { return xs_.size(); }

private:
    std::vector<double> xs_;
    std::vector<double> ys_;
};

/// Natural cubic spline (second derivative zero at both ends).
class CubicSpline {
public:
    CubicSpline() = default;
    CubicSpline(std::vector<double> xs, std::vector<double> ys);

    double operator()(double x) const;

    double x_min() const { return xs_.front(); }
    double x_max() const { return xs_.back(); }

private:
    std::size_t segment(double x) const;

    std::vector<double> xs_;
    std::vector<double> ys_;
    std::vector<double> m_;  // second derivatives at knots
    // Per segment i, formed once with the expressions the queries used:
    // 6h, ys[i] / h - m[i] * h / 6 and ys[i+1] / h - m[i+1] * h / 6.
    std::vector<double> six_h_;
    std::vector<double> c0_;
    std::vector<double> c1_;
};

}  // namespace ehdoe::num
