#include "numerics/polynomial.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ehdoe::num {

unsigned Monomial::degree() const {
    unsigned d = 0;
    for (unsigned e : exponents) d += e;
    return d;
}

double int_pow(double x, unsigned e) {
    double r = 1.0;
    while (e) {
        if (e & 1u) r *= x;
        x *= x;
        e >>= 1u;
    }
    return r;
}

double Monomial::evaluate(const Vector& x) const {
    if (x.size() != exponents.size())
        throw std::invalid_argument("Monomial::evaluate: dimension mismatch");
    double v = 1.0;
    for (std::size_t i = 0; i < exponents.size(); ++i) {
        if (exponents[i]) v *= int_pow(x[i], exponents[i]);
    }
    return v;
}

double Monomial::derivative(const Vector& x, std::size_t j) const {
    if (j >= exponents.size()) throw std::out_of_range("Monomial::derivative");
    const unsigned ej = exponents[j];
    if (ej == 0) return 0.0;
    double v = static_cast<double>(ej) * int_pow(x[j], ej - 1);
    for (std::size_t i = 0; i < exponents.size(); ++i) {
        if (i != j && exponents[i]) v *= int_pow(x[i], exponents[i]);
    }
    return v;
}

double Monomial::second_derivative(const Vector& x, std::size_t j, std::size_t l) const {
    if (j >= exponents.size() || l >= exponents.size())
        throw std::out_of_range("Monomial::second_derivative");
    if (j == l) {
        const unsigned e = exponents[j];
        if (e < 2) return 0.0;
        double v = static_cast<double>(e) * static_cast<double>(e - 1) * int_pow(x[j], e - 2);
        for (std::size_t i = 0; i < exponents.size(); ++i)
            if (i != j && exponents[i]) v *= int_pow(x[i], exponents[i]);
        return v;
    }
    const unsigned ej = exponents[j], el = exponents[l];
    if (ej == 0 || el == 0) return 0.0;
    double v = static_cast<double>(ej) * int_pow(x[j], ej - 1) *
               static_cast<double>(el) * int_pow(x[l], el - 1);
    for (std::size_t i = 0; i < exponents.size(); ++i)
        if (i != j && i != l && exponents[i]) v *= int_pow(x[i], exponents[i]);
    return v;
}

std::string Monomial::to_string(const std::vector<std::string>& names) const {
    if (is_constant()) return "1";
    std::ostringstream os;
    bool first = true;
    for (std::size_t i = 0; i < exponents.size(); ++i) {
        if (!exponents[i]) continue;
        if (!first) os << '*';
        first = false;
        if (i < names.size()) {
            os << names[i];
        } else {
            os << 'x' << i;
        }
        if (exponents[i] > 1) os << '^' << exponents[i];
    }
    return os.str();
}

namespace {
// Recursive enumeration of all exponent vectors with total degree <= budget,
// appended in lexicographic order within a degree class by construction.
void enumerate(std::size_t k, std::size_t pos, unsigned budget, std::vector<unsigned>& cur,
               std::vector<Monomial>& out) {
    if (pos == k) {
        out.emplace_back(cur);
        return;
    }
    for (unsigned e = 0; e <= budget; ++e) {
        cur[pos] = e;
        enumerate(k, pos + 1, budget - e, cur, out);
    }
    cur[pos] = 0;
}
}  // namespace

std::vector<Monomial> monomials_up_to_degree(std::size_t k, unsigned max_degree) {
    if (k == 0) throw std::invalid_argument("monomials_up_to_degree: k must be positive");
    std::vector<Monomial> all;
    std::vector<unsigned> cur(k, 0);
    enumerate(k, 0, max_degree, cur, all);
    // Sort by (degree, reverse-lex on exponents) for a conventional ordering:
    // 1, x0..xk, x0^2, x0x1, ...
    std::stable_sort(all.begin(), all.end(), [](const Monomial& a, const Monomial& b) {
        if (a.degree() != b.degree()) return a.degree() < b.degree();
        return a.exponents > b.exponents;  // x0-major within a degree class
    });
    return all;
}

std::vector<Monomial> linear_basis(std::size_t k) {
    std::vector<Monomial> terms;
    terms.emplace_back(k);  // constant
    for (std::size_t i = 0; i < k; ++i) {
        Monomial m(k);
        m.exponents[i] = 1;
        terms.push_back(std::move(m));
    }
    return terms;
}

std::vector<Monomial> interaction_basis(std::size_t k) {
    std::vector<Monomial> terms = linear_basis(k);
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = i + 1; j < k; ++j) {
            Monomial m(k);
            m.exponents[i] = 1;
            m.exponents[j] = 1;
            terms.push_back(std::move(m));
        }
    }
    return terms;
}

std::vector<Monomial> quadratic_basis(std::size_t k) {
    std::vector<Monomial> terms = interaction_basis(k);
    for (std::size_t i = 0; i < k; ++i) {
        Monomial m(k);
        m.exponents[i] = 2;
        terms.push_back(std::move(m));
    }
    return terms;
}

Matrix model_matrix(const std::vector<Monomial>& terms, const Matrix& points) {
    Matrix m(points.rows(), terms.size());
    for (std::size_t i = 0; i < points.rows(); ++i) {
        const Vector x = points.row(i);
        for (std::size_t j = 0; j < terms.size(); ++j) m(i, j) = terms[j].evaluate(x);
    }
    return m;
}

}  // namespace ehdoe::num
