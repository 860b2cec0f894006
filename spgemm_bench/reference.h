// The benchmark's reference kernel: plain row-wise Gustavson SpGEMM with a
// dense accumulator, run on the benchmark's own std::threads and plain
// std::vector storage. It shares no code with the library (no parallel_for,
// no tracked allocator), so no library change can speed it up or slow it
// down; timing it back to back with the library on the same operands turns
// host drift into a common factor that the op/ref ratio cancels.
#pragma once

#include <cstdint>
#include <thread>
#include <vector>

#include "host.h"
#include "matrix/csr.h"

namespace spgemm_bench {

using tsg::Csr;
using tsg::index_t;
using tsg::offset_t;

struct RefCsr {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<offset_t> row_ptr;
  std::vector<index_t> col;
  std::vector<double> val;
  offset_t nnz() const { return row_ptr.empty() ? 0 : row_ptr.back(); }
};

/// Runs `body(rank)` on ranks 0..threads-1: rank 0 on the caller, the rest
/// on std::threads joined before returning.
template <class Body>
void run_team(int threads, const Body& body) {
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<std::size_t>(threads > 1 ? threads - 1 : 0));
  for (int rank = 1; rank < threads; ++rank) helpers.emplace_back(body, rank);
  body(0);
  for (std::thread& t : helpers) t.join();
}

class Gustavson {
 public:
  /// `watch`, when given, is probed from the calling thread while the
  /// whole team runs.
  explicit Gustavson(int threads, ThreadWatch* watch = nullptr)
      : threads_(threads < 1 ? 1 : threads), watch_(watch) {}

  /// C = A * B, or C = (A * B) .* pattern(mask) when `mask` is non-null.
  /// Symbolic pass, row-pointer prefix sum, numeric pass; columns sorted.
  /// The result lives in this object and is overwritten by the next call.
  const RefCsr& multiply(const Csr<double>& a, const Csr<double>& b,
                         const Csr<double>* mask = nullptr);

  /// nnz(A * B) without forming it (symbolic pass only).
  offset_t product_nnz(const Csr<double>& a, const Csr<double>& b);

 private:
  // One cache line apart: the per-row epoch and touched-list updates would
  // otherwise bounce a shared line between the threads on every nonzero.
  struct alignas(64) Scratch {
    std::vector<double> acc;
    std::vector<std::uint64_t> stamp;
    std::vector<std::uint64_t> mask_stamp;
    std::vector<index_t> touched;
    std::uint64_t epoch = 0;
  };
  void prepare(index_t cols);
  template <bool kNumeric>
  void pass(const Csr<double>& a, const Csr<double>& b, const Csr<double>* mask);

  int threads_;
  ThreadWatch* watch_;
  std::vector<Scratch> scratch_;
  std::vector<offset_t> row_nnz_;
  RefCsr c_;
};

/// Multiply-adds of the row-wise product: sum over A's nonzeros a_ik of
/// nnz(B row k).
double multiply_adds(const Csr<double>& a, const Csr<double>& b);

}  // namespace spgemm_bench
