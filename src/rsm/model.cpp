#include "rsm/model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "numerics/pair.hpp"

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

ModelSpec::ModelSpec(std::size_t k, ModelOrder order) : k_(k), terms_(terms_for(k, order)) {
    if (k == 0) throw std::invalid_argument("ModelSpec: k >= 1");
    compile();
}

ModelSpec::ModelSpec(std::size_t k, std::vector<Monomial> terms) : k_(k), terms_(std::move(terms)) {
    if (k == 0) throw std::invalid_argument("ModelSpec: k >= 1");
    if (terms_.empty()) throw std::invalid_argument("ModelSpec: needs >= 1 term");
    for (const Monomial& m : terms_) {
        if (m.variables() != k_)
            throw std::invalid_argument("ModelSpec: term dimension mismatch");
    }
    compile();
}

// Monomial::evaluate forms 1.0 * x_a^ea * x_b^eb * ... left to right in
// variable order, each power by num::int_pow; a row of slots keeps those
// products (see the header for why the leading powers and the padding are
// exact). Rows hold at least two slots, so the kernel forms every term with
// one multiplication before its loop over any further slots.
void ModelSpec::compile() {
    const auto one = static_cast<std::uint32_t>(k_);
    const auto power_slot = [this](std::uint32_t var, std::uint32_t exponent) {
        std::size_t p = 0;
        while (p < powers_.size() && (powers_[p].var != var || powers_[p].exponent != exponent))
            ++p;
        if (p == powers_.size()) powers_.push_back(Power{var, exponent});
        return static_cast<std::uint32_t>(k_ + 1 + p);
    };
    std::vector<std::vector<std::uint32_t>> rows;
    rows.reserve(terms_.size());
    width_ = 2;
    for (const Monomial& m : terms_) {
        std::vector<std::uint32_t> row;
        for (std::size_t i = 0; i < k_; ++i) {
            const unsigned e = m.exponents[i];
            if (e == 0) continue;
            const auto var = static_cast<std::uint32_t>(i);
            if (e == 1 || (row.empty() && e <= 3)) {
                row.insert(row.end(), e, var);
            } else {
                row.push_back(power_slot(var, e));
            }
        }
        width_ = std::max(width_, row.size());
        rows.push_back(std::move(row));
    }
    slots_.reserve(rows.size() * width_);
    for (std::vector<std::uint32_t>& row : rows) {
        row.resize(width_, one);
        slots_.insert(slots_.end(), row.begin(), row.end());
    }
}

namespace {

using num::load_pair;
using num::Pair;

// The kernel: P points by M coefficient vectors over `ext`, the points'
// extended values stored slot-major (slot s of point i at ext[s * P + i]).
// Each term is formed once per point from its row of slots, then added,
// times each vector's coefficient, to that vector's running sums. Points
// go through the two lanes of a Pair, as many pairs per sweep over the
// terms as keep every sum and term in a register (x86-64 has 16): all
// four pairs of a block for up to 2 vectors, two pairs for 3 or 4. P = 1
// runs the same operations on scalars. Every lane does the same IEEE
// operations in the same order, so any P and M give the bits of P * M
// separate dot products.
template <std::size_t P, std::size_t M>
void accumulate(const std::uint32_t* slots, std::size_t width, std::size_t num_terms,
                const double* ext, const double* const* coefficients, double* out,
                std::size_t out_stride) {
    if constexpr (P == 1) {
        double sum[M] = {};
        for (std::size_t j = 0; j < num_terms; ++j, slots += width) {
            double term = ext[slots[0]] * ext[slots[1]];
            for (std::size_t w = 2; w < width; ++w) term *= ext[slots[w]];
            for (std::size_t c = 0; c < M; ++c) sum[c] += term * coefficients[c][j];
        }
        for (std::size_t c = 0; c < M; ++c) out[c] = sum[c];
    } else {
        constexpr std::size_t kPairs = M <= 2 || P == 2 ? P / 2 : 2;
        for (std::size_t first = 0; first < P; first += 2 * kPairs) {
            const std::uint32_t* row = slots;
            const double* x = ext + first;
            Pair sum[M][kPairs] = {};
            for (std::size_t j = 0; j < num_terms; ++j, row += width) {
                Pair term[kPairs];
                for (std::size_t l = 0; l < kPairs; ++l)
                    term[l] = load_pair(x + row[0] * P + 2 * l) * load_pair(x + row[1] * P + 2 * l);
                for (std::size_t w = 2; w < width; ++w) {
                    for (std::size_t l = 0; l < kPairs; ++l)
                        term[l] *= load_pair(x + row[w] * P + 2 * l);
                }
                for (std::size_t c = 0; c < M; ++c) {
                    const double beta = coefficients[c][j];
                    for (std::size_t l = 0; l < kPairs; ++l) sum[c][l] += term[l] * beta;
                }
            }
            for (std::size_t i = 0; i < 2 * kPairs; ++i) {
                for (std::size_t c = 0; c < M; ++c)
                    out[(first + i) * out_stride + c] = sum[c][i / 2][i % 2];
            }
        }
    }
}

}  // namespace

template <std::size_t P>
void ModelSpec::extend(const double* points, std::size_t point_stride, double* ext) const {
    for (std::size_t i = 0; i < P; ++i, points += point_stride) {
        for (std::size_t v = 0; v < k_; ++v) ext[v * P + i] = points[v];
        ext[k_ * P + i] = 1.0;
        double* slot = ext + (k_ + 1) * P + i;
        for (const Power& p : powers_) {
            *slot = num::int_pow(points[p.var], p.exponent);
            slot += P;
        }
    }
}

template <std::size_t P>
void ModelSpec::pass(const double* ext, const double* const* coefficients,
                     std::size_t num_vectors, double* out) const {
    const std::uint32_t* slots = slots_.data();
    const std::size_t n = terms_.size();
    for (std::size_t c = 0; c < num_vectors; c += kBlockVectors) {
        const double* const* b = coefficients + c;
        double* o = out + c;
        switch (std::min(num_vectors - c, kBlockVectors)) {
            case 1: accumulate<P, 1>(slots, width_, n, ext, b, o, num_vectors); break;
            case 2: accumulate<P, 2>(slots, width_, n, ext, b, o, num_vectors); break;
            case 3: accumulate<P, 3>(slots, width_, n, ext, b, o, num_vectors); break;
            default: accumulate<P, kBlockVectors>(slots, width_, n, ext, b, o, num_vectors);
        }
    }
}

void ModelSpec::predict_block(const double* points, std::size_t num_points,
                              std::size_t point_stride, const double* const* coefficients,
                              std::size_t num_vectors, double* out) const {
    // Left unset: extend() writes every slot a pass then reads.
    double stack[kStackSlots * kBlockPoints];
    std::vector<double> heap;
    double* ext = stack;
    if (num_slots() > kStackSlots) {
        heap.resize(num_slots() * kBlockPoints);
        ext = heap.data();
    }
    std::size_t i = 0;
    for (; i + kBlockPoints <= num_points; i += kBlockPoints) {
        extend<kBlockPoints>(points + i * point_stride, point_stride, ext);
        pass<kBlockPoints>(ext, coefficients, num_vectors, out + i * num_vectors);
    }
    // The remainder: at most one pass each of 4, 2 and 1 points.
    if (num_points - i >= 4) {
        extend<4>(points + i * point_stride, point_stride, ext);
        pass<4>(ext, coefficients, num_vectors, out + i * num_vectors);
        i += 4;
    }
    if (num_points - i >= 2) {
        extend<2>(points + i * point_stride, point_stride, ext);
        pass<2>(ext, coefficients, num_vectors, out + i * num_vectors);
        i += 2;
    }
    if (i < num_points) {
        extend<1>(points + i * point_stride, point_stride, ext);
        pass<1>(ext, coefficients, num_vectors, out + i * num_vectors);
    }
}

double ModelSpec::predict(const double* coded_point, const double* coefficients) const {
    double out = 0.0;
    predict_block(coded_point, 1, k_, &coefficients, 1, &out);
    return out;
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

std::string ModelSpec::describe(const std::vector<std::string>& names) const {
    std::ostringstream os;
    for (std::size_t i = 0; i < terms_.size(); ++i) {
        if (i) os << ", ";
        os << terms_[i].to_string(names);
    }
    return os.str();
}

}  // namespace ehdoe::rsm
