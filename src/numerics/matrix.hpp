// ehdoe/numerics/matrix.hpp
//
// Dense, row-major matrix and vector types used throughout the toolkit.
//
// The toolkit deliberately carries its own small linear-algebra layer: the
// reproduction environment has no Eigen/BLAS, and the matrices involved are
// small (state-space systems of order < 30, regression matrices of a few
// hundred rows), so a simple, cache-friendly dense implementation is both
// sufficient and easy to audit.
//
// Conventions:
//  * `Vector` is a thin wrapper over std::vector<double> with arithmetic.
//  * `Matrix` stores row-major; element access is m(i, j).
//  * All shape mismatches throw std::invalid_argument (these are programmer
//    errors at API boundaries; the cost of the check is negligible at the
//    sizes involved).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace ehdoe::num {

/// Dense column vector of doubles.
class Vector {
public:
    Vector() = default;
    /// Zero vector of dimension `n`.
    explicit Vector(std::size_t n) : data_(n, 0.0) {}
    /// Constant vector of dimension `n` filled with `value`.
    Vector(std::size_t n, double value) : data_(n, value) {}
    Vector(std::initializer_list<double> init) : data_(init) {}
    explicit Vector(std::vector<double> data) : data_(std::move(data)) {}

    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    double& operator[](std::size_t i) { return data_[i]; }
    double operator[](std::size_t i) const { return data_[i]; }

    /// Bounds-checked access.
    double& at(std::size_t i);
    double at(std::size_t i) const;

    double* data() { return data_.data(); }
    const double* data() const { return data_.data(); }
    const std::vector<double>& std() const { return data_; }

    auto begin() { return data_.begin(); }
    auto end() { return data_.end(); }
    auto begin() const { return data_.begin(); }
    auto end() const { return data_.end(); }

    Vector& operator+=(const Vector& rhs);
    Vector& operator-=(const Vector& rhs);
    Vector& operator*=(double s);
    Vector& operator/=(double s);

    /// Euclidean norm.
    double norm() const;
    /// Maximum absolute entry; 0 for the empty vector.
    double norm_inf() const;
    /// Sum of entries.
    double sum() const;

    /// y = a*x + y (in place).
    void axpy(double a, const Vector& x);

    void fill(double value);
    void resize(std::size_t n, double value = 0.0) { data_.resize(n, value); }

private:
    std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(Vector lhs, double s);
Vector operator*(double s, Vector rhs);
Vector operator/(Vector lhs, double s);
Vector operator-(Vector v);

/// Dot product; throws on dimension mismatch.
double dot(const Vector& a, const Vector& b);

std::ostream& operator<<(std::ostream& os, const Vector& v);

/// Dense row-major matrix of doubles.
class Matrix {
public:
    Matrix() = default;
    /// Zero matrix of shape rows x cols.
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
    Matrix(std::size_t rows, std::size_t cols, double value)
        : rows_(rows), cols_(cols), data_(rows * cols, value) {}
    /// Build from nested initializer lists; all rows must have equal length.
    Matrix(std::initializer_list<std::initializer_list<double>> init);

    static Matrix identity(std::size_t n);
    /// Diagonal matrix from a vector.
    static Matrix diag(const Vector& d);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return data_.empty(); }
    bool square() const { return rows_ == cols_ && rows_ > 0; }

    double& operator()(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
    double operator()(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

    /// Bounds-checked access.
    double& at(std::size_t i, std::size_t j);
    double at(std::size_t i, std::size_t j) const;

    double* data() { return data_.data(); }
    const double* data() const { return data_.data(); }
    double* row_ptr(std::size_t i) { return data_.data() + i * cols_; }
    const double* row_ptr(std::size_t i) const { return data_.data() + i * cols_; }

    /// Copy of row `i` / column `j` as a vector.
    Vector row(std::size_t i) const;
    Vector col(std::size_t j) const;
    void set_row(std::size_t i, const Vector& v);
    void set_col(std::size_t j, const Vector& v);

    Matrix& operator+=(const Matrix& rhs);
    Matrix& operator-=(const Matrix& rhs);
    Matrix& operator*=(double s);

    Matrix transposed() const;

    /// Frobenius norm.
    double norm_fro() const;
    /// Induced infinity norm (max absolute row sum).
    double norm_inf() const;
    /// Max |a_ij|.
    double max_abs() const;

    void fill(double value);
    void swap_rows(std::size_t a, std::size_t b);

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix lhs, double s);
Matrix operator*(double s, Matrix rhs);

/// Matrix-matrix product; throws on inner-dimension mismatch.
Matrix operator*(const Matrix& a, const Matrix& b);
/// The leading `rows` rows of a * b summed over its first `inner` terms,
/// into the same rows of `c`: c(i, j) = sum of a(i, k) * b(k, j) over
/// k < inner, for i < rows. operator* is rows = a.rows(), inner = a.cols().
/// `c` must be neither factor; it is reshaped to a.rows() x b.cols() if it
/// has another shape, so nothing is allocated once it has this one, and its
/// rows from `rows` on are left as they are. Each entry sums from 0.0 over
/// the k with a(i, k) != 0 in ascending k (an i-k-j loop's order, so its
/// bits for every input, signed zeros, infinities and NaNs included); two
/// rows are summed together, 8 columns at a time in registers.
void multiply_into(const Matrix& a, const Matrix& b, std::size_t rows, std::size_t inner,
                   Matrix& c);
/// Matrix-vector product.
Vector operator*(const Matrix& a, const Vector& x);

/// a^T * b without forming the transpose.
Matrix mul_at_b(const Matrix& a, const Matrix& b);
/// a^T * x.
Vector mul_at_x(const Matrix& a, const Vector& x);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

/// True when all entries differ by at most `tol` (and shapes match).
bool approx_equal(const Matrix& a, const Matrix& b, double tol);
bool approx_equal(const Vector& a, const Vector& b, double tol);

}  // namespace ehdoe::num
