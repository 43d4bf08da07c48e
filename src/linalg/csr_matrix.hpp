// Compressed-sparse-row matrix and a coordinate-format builder.
//
// The placer assembles the (symmetric positive definite) connectivity
// matrix C of the quadratic objective once per placement transformation;
// duplicate (i,j) contributions from clique edges are accumulated by the
// builder when converting to CSR.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gpf {

/// Sparsity pattern of a CSR matrix: n+1 monotone row pointers and one
/// 32-bit column index per stored entry (sorted within each row). The x
/// and y matrices of the placement system share one pattern, so their
/// paired solve reads each index once for both axes.
struct csr_pattern {
    std::vector<std::size_t> row_ptr;
    std::vector<std::uint32_t> col_idx;

    csr_pattern() = default;
    /// Validates the shape; rows must fit the 32-bit column index.
    csr_pattern(std::vector<std::size_t> row_ptr, std::vector<std::uint32_t> col_idx);

    std::size_t rows() const { return row_ptr.empty() ? 0 : row_ptr.size() - 1; }
    std::size_t nonzeros() const { return col_idx.size(); }

    /// Sentinel returned by slot() for entries outside the pattern.
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /// Index of entry (i, j) into a value array over this pattern, npos if
    /// not stored. O(log row_nnz).
    std::size_t slot(std::size_t i, std::size_t j) const;
};

/// GPF_CHECKs that an n-row matrix can index its columns in 32 bits.
void check_rows_fit_u32(std::size_t n);

class csr_matrix {
public:
    csr_matrix() = default;

    /// A value array over a pattern (e.g. a precomputed symbolic pattern
    /// with zeroed values); values must match the pattern's nonzeros.
    csr_matrix(csr_pattern pattern, std::vector<double> values);

    std::size_t rows() const { return pattern_.rows(); }
    std::size_t nonzeros() const { return values_.size(); }

    /// y = A * x. x.size() must equal rows(). Row-parallel over the worker
    /// pool; bitwise identical for any thread count (each y[i] is one
    /// left-to-right row sum).
    void multiply(const std::vector<double>& x, std::vector<double>& y) const;

    /// Main diagonal (missing entries are 0).
    std::vector<double> diagonal() const;

    /// Value at (i, j), 0 if not stored. O(log row_nnz).
    double at(std::size_t i, std::size_t j) const;

    /// True when the stored pattern and values are symmetric within tol.
    bool is_symmetric(double tol = 1e-12) const;

    const csr_pattern& pattern() const { return pattern_; }
    const std::vector<double>& values() const { return values_; }

private:
    friend class coo_builder;

    csr_pattern pattern_;
    std::vector<double> values_;
};

/// Accumulating coordinate-format builder. add() may be called repeatedly
/// for the same (i, j); contributions sum during build().
class coo_builder {
public:
    explicit coo_builder(std::size_t n) : n_(n) {}

    std::size_t size() const { return n_; }

    void add(std::size_t i, std::size_t j, double value);
    void add_symmetric_pair(std::size_t i, std::size_t j, double value);
    void add_diagonal(std::size_t i, double value);

    /// Number of raw (pre-merge) entries added so far.
    std::size_t entry_count() const { return entries_.size(); }

    /// Merge duplicates and produce the CSR matrix. The builder can be
    /// reused afterwards (entries are consumed).
    csr_matrix build();

private:
    struct entry {
        std::size_t row;
        std::size_t col;
        double value;
    };

    std::size_t n_;
    std::vector<entry> entries_;
};

} // namespace gpf
