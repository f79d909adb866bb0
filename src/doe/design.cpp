#include "doe/design.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ehdoe::doe {

void Factor::validate() const {
    if (name.empty()) throw std::invalid_argument("Factor: name required");
    if (!(high > low)) throw std::invalid_argument("Factor '" + name + "': high > low");
    if (log_scale && !(low > 0.0)) {
        throw std::invalid_argument("Factor '" + name + "': log scale requires low > 0");
    }
}

double Factor::to_natural(double coded) const {
    if (log_scale) {
        const double lg = std::log(low), hg = std::log(high);
        return std::exp(lg + (coded + 1.0) * 0.5 * (hg - lg));
    }
    return low + (coded + 1.0) * 0.5 * (high - low);
}

double Factor::to_coded(double natural) const {
    if (log_scale) {
        if (!(natural > 0.0))
            throw std::invalid_argument("Factor '" + name + "': log scale needs natural > 0");
        const double lg = std::log(low), hg = std::log(high);
        return 2.0 * (std::log(natural) - lg) / (hg - lg) - 1.0;
    }
    return 2.0 * (natural - low) / (high - low) - 1.0;
}

DesignSpace::DesignSpace(std::vector<Factor> factors) : factors_(std::move(factors)) {
    if (factors_.empty()) throw std::invalid_argument("DesignSpace: needs >= 1 factor");
    for (const Factor& f : factors_) f.validate();
    for (std::size_t i = 0; i < factors_.size(); ++i) {
        for (std::size_t j = i + 1; j < factors_.size(); ++j) {
            if (factors_[i].name == factors_[j].name) {
                throw std::invalid_argument("DesignSpace: duplicate factor name '" +
                                            factors_[i].name + "'");
            }
        }
    }
}

std::size_t DesignSpace::index_of(const std::string& name) const {
    for (std::size_t i = 0; i < factors_.size(); ++i) {
        if (factors_[i].name == name) return i;
    }
    throw std::invalid_argument("DesignSpace: unknown factor '" + name + "'");
}

Vector DesignSpace::to_natural(const Vector& coded) const {
    if (coded.size() != dimension())
        throw std::invalid_argument("DesignSpace::to_natural: dimension mismatch");
    Vector out(dimension());
    for (std::size_t i = 0; i < dimension(); ++i) out[i] = factors_[i].to_natural(coded[i]);
    return out;
}

Vector DesignSpace::clamp(Vector coded) const {
    if (coded.size() != dimension())
        throw std::invalid_argument("DesignSpace::clamp: dimension mismatch");
    for (auto& c : coded) c = std::clamp(c, -1.0, 1.0);
    return coded;
}

bool DesignSpace::contains(const Vector& coded, double tol) const {
    if (coded.size() != dimension()) return false;
    for (double c : coded) {
        if (c < -1.0 - tol || c > 1.0 + tol) return false;
    }
    return true;
}

std::vector<std::string> DesignSpace::names() const {
    std::vector<std::string> n;
    n.reserve(factors_.size());
    for (const Factor& f : factors_) n.push_back(f.name);
    return n;
}

void Design::append(const Design& other) {
    if (points.empty()) {
        points = other.points;
        return;
    }
    if (other.points.cols() != points.cols())
        throw std::invalid_argument("Design::append: dimension mismatch");
    Matrix merged(points.rows() + other.points.rows(), points.cols());
    for (std::size_t i = 0; i < points.rows(); ++i)
        for (std::size_t j = 0; j < points.cols(); ++j) merged(i, j) = points(i, j);
    for (std::size_t i = 0; i < other.points.rows(); ++i)
        for (std::size_t j = 0; j < points.cols(); ++j)
            merged(points.rows() + i, j) = other.points(i, j);
    points = std::move(merged);
}

void Design::add_center_points(std::size_t n) {
    if (points.empty()) throw std::logic_error("Design::add_center_points: empty design");
    Design centre;
    centre.points = Matrix(n, points.cols());
    append(centre);
}

Matrix to_natural(const DesignSpace& space, const Design& design) {
    if (design.dimension() != space.dimension())
        throw std::invalid_argument("to_natural: design/space dimension mismatch");
    Matrix out(design.runs(), design.dimension());
    for (std::size_t i = 0; i < design.runs(); ++i) {
        const Vector nat = space.to_natural(design.points.row(i));
        out.set_row(i, nat);
    }
    return out;
}

double min_pairwise_distance(const Matrix& points) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < points.rows(); ++i) {
        for (std::size_t j = i + 1; j < points.rows(); ++j) {
            double d2 = 0.0;
            for (std::size_t c = 0; c < points.cols(); ++c) {
                const double d = points(i, c) - points(j, c);
                d2 += d * d;
            }
            best = std::min(best, d2);
        }
    }
    return points.rows() > 1 ? std::sqrt(best) : 0.0;
}

}  // namespace ehdoe::doe
