#include "opt/optimizer.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ehdoe::opt {

Bounds Bounds::coded_cube(std::size_t k) {
    Bounds b;
    b.lo = Vector(k, -1.0);
    b.hi = Vector(k, 1.0);
    return b;
}

void Bounds::validate() const {
    if (lo.size() != hi.size() || lo.empty())
        throw std::invalid_argument("Bounds: lo/hi size mismatch or empty");
    for (std::size_t i = 0; i < lo.size(); ++i) {
        if (!(hi[i] > lo[i])) throw std::invalid_argument("Bounds: hi > lo required");
    }
}

Vector Bounds::clamp(Vector x) const {
    if (x.size() != lo.size()) throw std::invalid_argument("Bounds::clamp: dimension mismatch");
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::clamp(x[i], lo[i], hi[i]);
    return x;
}

Vector Bounds::sample(std::function<double()> unit_rand) const {
    Vector x(lo.size());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = lo[i] + (hi[i] - lo[i]) * unit_rand();
    return x;
}

std::vector<double> CountedBatchObjective::operator()(const std::vector<Vector>& points) const {
    std::vector<double> values = f_(points);
    if (values.size() != points.size())
        throw std::runtime_error("BatchObjective returned " + std::to_string(values.size()) +
                                 " values for " + std::to_string(points.size()) + " points");
    count_.fetch_add(points.size(), std::memory_order_relaxed);
    return values;
}

}  // namespace ehdoe::opt
