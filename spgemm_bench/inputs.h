// Seeded input generation and output checks. The library only ever sees
// the matrices built here; the same seed always builds the same inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "matrix/csr.h"
#include "reference.h"

namespace spgemm_bench {

/// splitmix64: a small, fully specified generator, so inputs do not depend
/// on the standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Values redrawn uniformly from [0.1, 1.1): positive, so products have no
/// cancellation and the library and the reference agree on the pattern.
void randomize_values(Csr<double>& m, std::uint64_t seed);

/// 27-point stencil on an edge^3 grid with seeded values (the FEM proxy).
Csr<double> fem_operand(index_t edge, std::uint64_t seed);

/// Strict lower triangle, all values 1, of a symmetrised R-MAT graph on
/// 2^scale vertices: C = (L*L) .* L then holds, per edge, the triangles it
/// closes, and the sum of C is the triangle count.
Csr<double> triangle_operand(int scale, double edge_factor, std::uint64_t seed);

/// Order-sensitive 64-bit hash of a CSR's shape, pattern and value bits.
std::uint64_t hash_csr(const Csr<double>& m);

/// Empty when `c` has the reference's pattern and every value is within
/// `rel_tol` of it (relative to max(1, |ref|)); else the first difference.
std::string compare_to_reference(const Csr<double>& c, const RefCsr& ref, double rel_tol);

/// Relative tolerance between the library and the reference product. Both
/// sum the same positive terms in different orders.
inline constexpr double kRefTolerance = 1e-12;

/// One request of the service mix. `b` null means C = A * A.
struct MixRequest {
  std::string kind;
  std::shared_ptr<const Csr<double>> a;
  std::shared_ptr<const Csr<double>> b;
  const Csr<double>& rhs() const { return b ? *b : *a; }
};

/// The seeded pool the service workload cycles through: two variants each
/// of banded, stencil, power-law and dense-block operands, as C = A*A and
/// as C = A*B, less the last (15 requests).
/// Sizes are fixed (`small` shrinks them for the self-test); the seed
/// draws the values and the R-MAT structure.
std::vector<MixRequest> service_pool(std::uint64_t seed, bool small);

}  // namespace spgemm_bench
