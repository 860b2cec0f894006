#include "reference.h"

#include <algorithm>
#include <atomic>

namespace spgemm_bench {

namespace {
constexpr index_t kChunkRows = 64;
}  // namespace

void Gustavson::prepare(index_t cols) {
  scratch_.resize(static_cast<std::size_t>(threads_));
  for (Scratch& s : scratch_) {
    if (s.acc.size() < static_cast<std::size_t>(cols)) {
      s.acc.assign(static_cast<std::size_t>(cols), 0.0);
      s.stamp.assign(static_cast<std::size_t>(cols), 0);
      s.mask_stamp.assign(static_cast<std::size_t>(cols), 0);
    }
  }
}

template <bool kNumeric>
void Gustavson::pass(const Csr<double>& a, const Csr<double>& b, const Csr<double>* mask) {
  std::atomic<index_t> next{0};
  run_team(threads_, [&](int rank) {
    Scratch& s = scratch_[static_cast<std::size_t>(rank)];
    if (rank == 0 && watch_ != nullptr) watch_->probe();
    for (;;) {
      const index_t begin = next.fetch_add(kChunkRows, std::memory_order_relaxed);
      if (begin >= a.rows) break;
      const index_t end = std::min<index_t>(begin + kChunkRows, a.rows);
      for (index_t i = begin; i < end; ++i) {
        const std::uint64_t row_epoch = ++s.epoch;
        if (mask != nullptr) {
          for (offset_t q = mask->row_ptr[i]; q < mask->row_ptr[i + 1]; ++q) {
            s.mask_stamp[static_cast<std::size_t>(mask->col_idx[q])] = row_epoch;
          }
        }
        s.touched.clear();
        for (offset_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
          const index_t k = a.col_idx[p];
          const double va = a.val[p];
          for (offset_t q = b.row_ptr[k]; q < b.row_ptr[k + 1]; ++q) {
            const auto j = static_cast<std::size_t>(b.col_idx[q]);
            if (mask != nullptr && s.mask_stamp[j] != row_epoch) continue;
            if (s.stamp[j] != row_epoch) {
              s.stamp[j] = row_epoch;
              s.touched.push_back(b.col_idx[q]);
              if constexpr (kNumeric) s.acc[j] = va * b.val[q];
            } else if constexpr (kNumeric) {
              s.acc[j] += va * b.val[q];
            }
          }
        }
        if constexpr (kNumeric) {
          std::sort(s.touched.begin(), s.touched.end());
          offset_t out = c_.row_ptr[i];
          for (index_t j : s.touched) {
            c_.col[static_cast<std::size_t>(out)] = j;
            c_.val[static_cast<std::size_t>(out)] = s.acc[static_cast<std::size_t>(j)];
            ++out;
          }
        } else {
          row_nnz_[static_cast<std::size_t>(i)] = static_cast<offset_t>(s.touched.size());
        }
      }
    }
  });
}

const RefCsr& Gustavson::multiply(const Csr<double>& a, const Csr<double>& b,
                                  const Csr<double>* mask) {
  prepare(b.cols);
  row_nnz_.resize(static_cast<std::size_t>(a.rows));
  pass<false>(a, b, mask);
  c_.rows = a.rows;
  c_.cols = b.cols;
  c_.row_ptr.resize(static_cast<std::size_t>(a.rows) + 1);
  c_.row_ptr[0] = 0;
  for (index_t i = 0; i < a.rows; ++i) {
    c_.row_ptr[static_cast<std::size_t>(i) + 1] =
        c_.row_ptr[static_cast<std::size_t>(i)] + row_nnz_[static_cast<std::size_t>(i)];
  }
  c_.col.resize(static_cast<std::size_t>(c_.nnz()));
  c_.val.resize(static_cast<std::size_t>(c_.nnz()));
  pass<true>(a, b, mask);
  return c_;
}

offset_t Gustavson::product_nnz(const Csr<double>& a, const Csr<double>& b) {
  prepare(b.cols);
  row_nnz_.resize(static_cast<std::size_t>(a.rows));
  pass<false>(a, b, nullptr);
  offset_t total = 0;
  for (offset_t n : row_nnz_) total += n;
  return total;
}

double multiply_adds(const Csr<double>& a, const Csr<double>& b) {
  double total = 0.0;
  for (offset_t p = 0; p < a.nnz(); ++p) {
    total += static_cast<double>(b.row_nnz(a.col_idx[static_cast<std::size_t>(p)]));
  }
  return total;
}

}  // namespace spgemm_bench
