#include "numerics/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "numerics/pair.hpp"

namespace ehdoe::num {

namespace {
[[noreturn]] void throw_shape(const char* what) {
    throw std::invalid_argument(std::string("ehdoe::num shape error: ") + what);
}
}  // namespace

double& Vector::at(std::size_t i) {
    if (i >= data_.size()) throw std::out_of_range("Vector::at");
    return data_[i];
}

double Vector::at(std::size_t i) const {
    if (i >= data_.size()) throw std::out_of_range("Vector::at");
    return data_[i];
}

Vector& Vector::operator+=(const Vector& rhs) {
    if (size() != rhs.size()) throw_shape("vector +=");
    for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs[i];
    return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
    if (size() != rhs.size()) throw_shape("vector -=");
    for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs[i];
    return *this;
}

Vector& Vector::operator*=(double s) {
    for (double& v : data_) v *= s;
    return *this;
}

Vector& Vector::operator/=(double s) {
    for (double& v : data_) v /= s;
    return *this;
}

double Vector::norm() const {
    // Two-pass scaled norm to avoid overflow on extreme values.
    double maxabs = norm_inf();
    if (maxabs == 0.0) return 0.0;
    double acc = 0.0;
    for (double v : data_) {
        const double r = v / maxabs;
        acc += r * r;
    }
    return maxabs * std::sqrt(acc);
}

double Vector::norm_inf() const {
    double m = 0.0;
    for (double v : data_) m = std::max(m, std::fabs(v));
    return m;
}

double Vector::sum() const {
    double s = 0.0;
    for (double v : data_) s += v;
    return s;
}

void Vector::axpy(double a, const Vector& x) {
    if (size() != x.size()) throw_shape("vector axpy");
    for (std::size_t i = 0; i < size(); ++i) data_[i] += a * x[i];
}

void Vector::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

Vector operator+(Vector lhs, const Vector& rhs) { lhs += rhs; return lhs; }
Vector operator-(Vector lhs, const Vector& rhs) { lhs -= rhs; return lhs; }
Vector operator*(Vector lhs, double s) { lhs *= s; return lhs; }
Vector operator*(double s, Vector rhs) { rhs *= s; return rhs; }
Vector operator/(Vector lhs, double s) { lhs /= s; return lhs; }

Vector operator-(Vector v) {
    for (auto& x : v) x = -x;
    return v;
}

double dot(const Vector& a, const Vector& b) {
    if (a.size() != b.size()) throw_shape("dot");
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

std::ostream& operator<<(std::ostream& os, const Vector& v) {
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) os << ", ";
        os << v[i];
    }
    return os << ']';
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
    rows_ = init.size();
    cols_ = rows_ ? init.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
        if (row.size() != cols_) throw_shape("ragged initializer list");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix Matrix::diag(const Vector& d) {
    Matrix m(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
    return m;
}

double& Matrix::at(std::size_t i, std::size_t j) {
    if (i >= rows_ || j >= cols_) throw std::out_of_range("Matrix::at");
    return (*this)(i, j);
}

double Matrix::at(std::size_t i, std::size_t j) const {
    if (i >= rows_ || j >= cols_) throw std::out_of_range("Matrix::at");
    return (*this)(i, j);
}

Vector Matrix::row(std::size_t i) const {
    Vector v(cols_);
    for (std::size_t j = 0; j < cols_; ++j) v[j] = (*this)(i, j);
    return v;
}

Vector Matrix::col(std::size_t j) const {
    Vector v(rows_);
    for (std::size_t i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
    return v;
}

void Matrix::set_row(std::size_t i, const Vector& v) {
    if (v.size() != cols_) throw_shape("set_row");
    for (std::size_t j = 0; j < cols_; ++j) (*this)(i, j) = v[j];
}

void Matrix::set_col(std::size_t j, const Vector& v) {
    if (v.size() != rows_) throw_shape("set_col");
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) throw_shape("matrix +=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) throw_shape("matrix -=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
}

Matrix& Matrix::operator*=(double s) {
    for (double& v : data_) v *= s;
    return *this;
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
}

double Matrix::norm_fro() const {
    double acc = 0.0;
    for (double v : data_) acc += v * v;
    return std::sqrt(acc);
}

double Matrix::norm_inf() const {
    double m = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) {
        double rs = 0.0;
        for (std::size_t j = 0; j < cols_; ++j) rs += std::fabs((*this)(i, j));
        m = std::max(m, rs);
    }
    return m;
}

double Matrix::max_abs() const {
    double m = 0.0;
    for (double v : data_) m = std::max(m, std::fabs(v));
    return m;
}

void Matrix::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::swap_rows(std::size_t a, std::size_t b) {
    if (a == b) return;
    for (std::size_t j = 0; j < cols_; ++j) std::swap((*this)(a, j), (*this)(b, j));
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { lhs += rhs; return lhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { lhs -= rhs; return lhs; }
Matrix operator*(Matrix lhs, double s) { lhs *= s; return lhs; }
Matrix operator*(double s, Matrix rhs) { rhs *= s; return rhs; }

Matrix operator*(const Matrix& a, const Matrix& b) {
    Matrix c;
    multiply_into(a, b, a.rows(), a.cols(), c);
    return c;
}

void multiply_into(const Matrix& a, const Matrix& b, std::size_t rows, std::size_t inner,
                   Matrix& c) {
    if (a.cols() != b.rows()) throw_shape("matrix *");
    if (rows > a.rows() || inner > a.cols()) throw_shape("matrix * past its factors");
    if (&c == &a || &c == &b) throw_shape("matrix * into one of its factors");
    if (c.rows() != a.rows() || c.cols() != b.cols()) c = Matrix(a.rows(), b.cols());
    // Each entry sums a(i, k) * b(k, j) from 0.0 over the k with
    // a(i, k) != 0, in ascending k: the order of an i-k-j loop that skips
    // a's zeros, hence its bits. Two rows run together, kBlock columns at a
    // time in Pair lanes the compiler keeps in registers: 8 sums that do not
    // wait on each other, and each load of b serves both rows. So c is
    // written once per entry; the columns after the last full block run one
    // by one, two rows at a time. An odd last row runs alone.
    constexpr std::size_t kBlock = 8;
    constexpr std::size_t kPairs = kBlock / 2;
    const std::size_t n = b.cols();
    const std::size_t blocked = n - n % kBlock;
    for (std::size_t i = 0; i < rows; i += 2) {
        const bool two = i + 1 < rows;
        const double* a0 = a.row_ptr(i);
        const double* a1 = a.row_ptr(two ? i + 1 : i);
        double* c0 = c.row_ptr(i);
        double* c1 = c.row_ptr(two ? i + 1 : i);
        for (std::size_t j0 = 0; j0 < blocked; j0 += kBlock) {
            Pair s0[kPairs] = {}, s1[kPairs] = {};
            for (std::size_t k = 0; k < inner; ++k) {
                const double x0 = a0[k], x1 = two ? a1[k] : 0.0;
                const double* bk = b.row_ptr(k) + j0;
                if (x0 != 0.0)
                    for (std::size_t q = 0; q < kPairs; ++q) s0[q] += x0 * load_pair(bk + 2 * q);
                if (x1 != 0.0)
                    for (std::size_t q = 0; q < kPairs; ++q) s1[q] += x1 * load_pair(bk + 2 * q);
            }
            for (std::size_t q = 0; q < kPairs; ++q) store_pair(c0 + j0 + 2 * q, s0[q]);
            if (two)
                for (std::size_t q = 0; q < kPairs; ++q) store_pair(c1 + j0 + 2 * q, s1[q]);
        }
        for (std::size_t j = blocked; j < n; ++j) {
            double t0 = 0.0, t1 = 0.0;
            for (std::size_t k = 0; k < inner; ++k) {
                const double x0 = a0[k], x1 = two ? a1[k] : 0.0;
                if (x0 != 0.0) t0 += x0 * b(k, j);
                if (x1 != 0.0) t1 += x1 * b(k, j);
            }
            c0[j] = t0;
            if (two) c1[j] = t1;
        }
    }
}

Vector operator*(const Matrix& a, const Vector& x) {
    if (a.cols() != x.size()) throw_shape("matrix * vector");
    Vector y(a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double* arow = a.row_ptr(i);
        double s = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j) s += arow[j] * x[j];
        y[i] = s;
    }
    return y;
}

Matrix mul_at_b(const Matrix& a, const Matrix& b) {
    if (a.rows() != b.rows()) throw_shape("a^T * b");
    Matrix c(a.cols(), b.cols());
    for (std::size_t k = 0; k < a.rows(); ++k) {
        const double* arow = a.row_ptr(k);
        const double* brow = b.row_ptr(k);
        for (std::size_t i = 0; i < a.cols(); ++i) {
            const double aki = arow[i];
            if (aki == 0.0) continue;
            double* crow = c.row_ptr(i);
            for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
        }
    }
    return c;
}

Vector mul_at_x(const Matrix& a, const Vector& x) {
    if (a.rows() != x.size()) throw_shape("a^T * x");
    Vector y(a.cols());
    for (std::size_t k = 0; k < a.rows(); ++k) {
        const double* arow = a.row_ptr(k);
        const double xk = x[k];
        for (std::size_t j = 0; j < a.cols(); ++j) y[j] += arow[j] * xk;
    }
    return y;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
        os << (i == 0 ? "[[" : " [");
        for (std::size_t j = 0; j < m.cols(); ++j) {
            if (j) os << ", ";
            os << m(i, j);
        }
        os << (i + 1 == m.rows() ? "]]" : "]\n");
    }
    return os;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            if (std::fabs(a(i, j) - b(i, j)) > tol) return false;
    return true;
}

bool approx_equal(const Vector& a, const Vector& b, double tol) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::fabs(a[i] - b[i]) > tol) return false;
    return true;
}

}  // namespace ehdoe::num
