#include "linalg/csr_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace gpf {

void check_rows_fit_u32(std::size_t n) {
    GPF_CHECK_MSG(n < (std::size_t{1} << 32),
                  "CSR matrix of " << n << " rows exceeds 32-bit column indices");
}

csr_pattern::csr_pattern(std::vector<std::size_t> rp, std::vector<std::uint32_t> ci)
    : row_ptr(std::move(rp)), col_idx(std::move(ci)) {
    GPF_CHECK(!row_ptr.empty());
    GPF_CHECK(row_ptr.front() == 0);
    GPF_CHECK(row_ptr.back() == col_idx.size());
    check_rows_fit_u32(rows());
}

std::size_t csr_pattern::slot(std::size_t i, std::size_t j) const {
    GPF_CHECK(i < rows() && j < rows());
    const auto begin = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[i]);
    const auto end = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[i + 1]);
    const auto it = std::lower_bound(begin, end, j);
    if (it == end || *it != j) return npos;
    return static_cast<std::size_t>(it - col_idx.begin());
}

csr_matrix::csr_matrix(csr_pattern pattern, std::vector<double> values)
    : pattern_(std::move(pattern)), values_(std::move(values)) {
    GPF_CHECK(pattern_.nonzeros() == values_.size());
}

void csr_matrix::multiply(const std::vector<double>& x, std::vector<double>& y) const {
    const std::size_t n = rows();
    GPF_CHECK(x.size() == n);
    y.resize(n);
    // Row-parallel: each y[i] is produced by exactly one row reduction in
    // the fixed 4-lane order of util/simd.hpp, so the result is bitwise
    // identical for any thread count and any GPF_SIMD setting.
    const simd_kernels& kern = simd();
    const double* vals = values_.data();
    const std::uint32_t* cols = pattern_.col_idx.data();
    const std::size_t* rp = pattern_.row_ptr.data();
    const double* xp = x.data();
    parallel_for_chunks(
        n,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                y[i] = kern.dot_gather(vals + rp[i], cols + rp[i], xp, rp[i + 1] - rp[i]);
            }
        },
        /*grain=*/256);
}

std::vector<double> csr_matrix::diagonal() const {
    const std::size_t n = rows();
    std::vector<double> d(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        d[i] = at(i, i);
    }
    return d;
}

double csr_matrix::at(std::size_t i, std::size_t j) const {
    const std::size_t k = pattern_.slot(i, j);
    return k == csr_pattern::npos ? 0.0 : values_[k];
}

bool csr_matrix::is_symmetric(double tol) const {
    const std::size_t n = rows();
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = pattern_.row_ptr[i]; k < pattern_.row_ptr[i + 1]; ++k) {
            const std::size_t j = pattern_.col_idx[k];
            if (j < i) continue; // each off-diagonal pair checked once
            if (std::abs(values_[k] - at(j, i)) > tol) return false;
        }
    }
    return true;
}

void coo_builder::add(std::size_t i, std::size_t j, double value) {
    GPF_CHECK(i < n_ && j < n_);
    entries_.push_back({i, j, value});
}

void coo_builder::add_symmetric_pair(std::size_t i, std::size_t j, double value) {
    add(i, j, value);
    add(j, i, value);
}

void coo_builder::add_diagonal(std::size_t i, double value) { add(i, i, value); }

csr_matrix coo_builder::build() {
    std::sort(entries_.begin(), entries_.end(), [](const entry& a, const entry& b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
    });

    check_rows_fit_u32(n_);
    csr_matrix m;
    std::vector<std::size_t>& row_ptr = m.pattern_.row_ptr;
    std::vector<std::uint32_t>& col_idx = m.pattern_.col_idx;
    row_ptr.assign(n_ + 1, 0);
    col_idx.reserve(entries_.size());
    m.values_.reserve(entries_.size());

    std::size_t k = 0;
    for (std::size_t i = 0; i < n_; ++i) {
        while (k < entries_.size() && entries_[k].row == i) {
            const std::size_t col = entries_[k].col;
            double acc = 0.0;
            while (k < entries_.size() && entries_[k].row == i && entries_[k].col == col) {
                acc += entries_[k].value;
                ++k;
            }
            col_idx.push_back(static_cast<std::uint32_t>(col));
            m.values_.push_back(acc);
        }
        row_ptr[i + 1] = m.values_.size();
    }
    entries_.clear();
    return m;
}

} // namespace gpf
