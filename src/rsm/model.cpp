#include "rsm/model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ehdoe::rsm {

namespace {
std::vector<Monomial> terms_for(std::size_t k, ModelOrder order) {
    switch (order) {
        case ModelOrder::Linear: return num::linear_basis(k);
        case ModelOrder::Interaction: return num::interaction_basis(k);
        case ModelOrder::Quadratic: return num::quadratic_basis(k);
        case ModelOrder::Cubic: return num::monomials_up_to_degree(k, 3);
    }
    throw std::invalid_argument("ModelSpec: unknown order");
}
}  // namespace

ModelSpec::ModelSpec(std::size_t k, ModelOrder order)
    : k_(k), order_(order), terms_(terms_for(k, order)) {
    if (k == 0) throw std::invalid_argument("ModelSpec: k >= 1");
    compile();
}

ModelSpec::ModelSpec(std::size_t k, std::vector<Monomial> terms)
    : k_(k), order_(ModelOrder::Quadratic), terms_(std::move(terms)) {
    if (k == 0) throw std::invalid_argument("ModelSpec: k >= 1");
    if (terms_.empty()) throw std::invalid_argument("ModelSpec: needs >= 1 term");
    for (const Monomial& m : terms_) {
        if (m.variables() != k_)
            throw std::invalid_argument("ModelSpec: term dimension mismatch");
    }
    compile();
}

// Monomial::evaluate forms 1.0 * x_a^ea * x_b^eb * ... left to right in
// variable order, each power by num::int_pow; the compiled row keeps those
// products. Multiplying by 1.0 is exact, so the row starts at its first
// factor and short rows are padded with 1.0. A leading x^2 or x^3 is spelled
// out as repeated x factors: int_pow gives x*x and x*(x*x), and (x*x)*x is
// the same product, so every factor of a quadratic model is a plain x_i.
void ModelSpec::compile() {
    std::vector<std::vector<Factor>> rows;
    rows.reserve(terms_.size());
    width_ = 1;
    for (const Monomial& m : terms_) {
        std::vector<Factor> row;
        for (std::size_t i = 0; i < k_; ++i) {
            const unsigned e = m.exponents[i];
            if (e == 0) continue;
            const auto var = static_cast<std::uint32_t>(i);
            if (row.empty() && e <= 3) {
                row.assign(e, Factor{var, 1});
            } else {
                row.push_back(Factor{var, e});
            }
        }
        width_ = std::max(width_, row.size());
        rows.push_back(std::move(row));
    }
    table_.clear();
    table_.reserve(rows.size() * width_);
    for (std::vector<Factor>& row : rows) {
        row.resize(width_, Factor{0, 0});
        table_.insert(table_.end(), row.begin(), row.end());
    }
}

double ModelSpec::predict(const double* coded_point, const double* coefficients) const {
    const std::size_t width = width_, n = terms_.size();
    // The hint keeps the rare power call off the hot path, so the running
    // sum stays in a register instead of being spilled around the call.
    const auto factor = [coded_point](const Factor& f) {
        if (__builtin_expect(f.exponent == 1, 1)) return coded_point[f.var];
        if (f.exponent == 0) return 1.0;
        return num::int_pow(coded_point[f.var], f.exponent);
    };
    double sum = 0.0;
    const Factor* f = table_.data();
    for (std::size_t j = 0; j < n; ++j) {
        double term = factor(*f++);
        for (std::size_t w = 1; w < width; ++w) term *= factor(*f++);
        sum += term * coefficients[j];
    }
    return sum;
}

Matrix ModelSpec::build_matrix(const Matrix& coded_points) const {
    if (coded_points.cols() != k_)
        throw std::invalid_argument("ModelSpec::build_matrix: dimension mismatch");
    return num::model_matrix(terms_, coded_points);
}

ModelSpec ModelSpec::without_term(std::size_t index) const {
    if (index >= terms_.size()) throw std::out_of_range("ModelSpec::without_term");
    if (terms_.size() == 1)
        throw std::invalid_argument("ModelSpec::without_term: cannot empty the model");
    std::vector<Monomial> t = terms_;
    t.erase(t.begin() + static_cast<std::ptrdiff_t>(index));
    return ModelSpec(k_, std::move(t));
}

ModelSpec ModelSpec::with_term(Monomial term) const {
    if (term.variables() != k_)
        throw std::invalid_argument("ModelSpec::with_term: dimension mismatch");
    std::vector<Monomial> t = terms_;
    t.push_back(std::move(term));
    return ModelSpec(k_, std::move(t));
}

std::string ModelSpec::describe(const std::vector<std::string>& names) const {
    std::ostringstream os;
    for (std::size_t i = 0; i < terms_.size(); ++i) {
        if (i) os << ", ";
        os << terms_[i].to_string(names);
    }
    return os.str();
}

std::size_t quadratic_term_count(std::size_t k) {
    return 1 + 2 * k + k * (k - 1) / 2;
}

}  // namespace ehdoe::rsm
