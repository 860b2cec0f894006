// Triangle counting via sparse linear algebra — one of the graph workloads
// the paper's introduction motivates (Azad, Buluç & Gilbert).
//
// Uses the masked-SpGEMM formulation on the strictly lower triangle:
//   L = tril(A),  count = sum( (L * L) .* L )
// Each surviving entry (i,j) counts the wedges i->k->j that close into a
// triangle. The product runs as one masked TileSpGEMM, so only the entries
// on L's pattern are ever computed; L * L is never formed. Verified
// against a brute-force count.
#include <cstdint>
#include <iostream>

#include "core/masked_spgemm.h"
#include "gen/generators.h"
#include "matrix/convert.h"
#include "matrix/ops.h"

namespace {

using namespace tsg;

/// Brute-force wedge check, for validation on the small graph.
std::int64_t brute_force_triangles(const Csr<double>& adj) {
  std::int64_t count = 0;
  for (index_t i = 0; i < adj.rows; ++i) {
    for (offset_t ki = adj.row_ptr[i]; ki < adj.row_ptr[i + 1]; ++ki) {
      const index_t j = adj.col_idx[ki];
      if (j <= i) continue;
      for (offset_t kj = adj.row_ptr[j]; kj < adj.row_ptr[j + 1]; ++kj) {
        const index_t k = adj.col_idx[kj];
        if (k <= j) continue;
        // Is (i,k) an edge?
        for (offset_t kk = adj.row_ptr[i]; kk < adj.row_ptr[i + 1]; ++kk) {
          if (adj.col_idx[kk] == k) {
            ++count;
            break;
          }
        }
      }
    }
  }
  return count;
}

std::int64_t spgemm_triangles(const Csr<double>& adj) {
  // Unweighted pattern.
  Csr<double> ones = adj;
  for (auto& v : ones.val) v = 1.0;
  const Csr<double> l = tril_strict(ones);
  const Csr<double> masked = spgemm_tile_masked(l, l, l);
  return static_cast<std::int64_t>(value_sum(masked) + 0.5);
}

}  // namespace

int main() {
  // Undirected power-law graph: symmetrise an R-MAT and drop self loops.
  Csr<double> g = gen::symmetrized(gen::rmat(12, 8.0, 7));
  {
    Coo<double> coo = csr_to_coo(g);
    Coo<double> clean;
    clean.rows = coo.rows;
    clean.cols = coo.cols;
    for (std::size_t k = 0; k < coo.val.size(); ++k) {
      if (coo.row[k] != coo.col[k]) clean.push_back(coo.row[k], coo.col[k], 1.0);
    }
    g = coo_to_csr(std::move(clean));
  }
  std::cout << "graph: " << g.rows << " vertices, " << g.nnz() / 2 << " edges\n";

  const std::int64_t via_spgemm = spgemm_triangles(g);
  std::cout << "triangles via (L*L).*L with TileSpGEMM: " << via_spgemm << "\n";

  // Validate on a subgraph small enough for brute force.
  Csr<double> small = gen::symmetrized(gen::rmat(8, 6.0, 9));
  {
    Coo<double> coo = csr_to_coo(small);
    Coo<double> clean;
    clean.rows = coo.rows;
    clean.cols = coo.cols;
    for (std::size_t k = 0; k < coo.val.size(); ++k) {
      if (coo.row[k] != coo.col[k]) clean.push_back(coo.row[k], coo.col[k], 1.0);
    }
    small = coo_to_csr(std::move(clean));
  }
  const std::int64_t expected = brute_force_triangles(small);
  const std::int64_t got = spgemm_triangles(small);
  std::cout << "validation graph: spgemm " << got << " vs brute force " << expected << " -> "
            << (got == expected ? "OK" : "MISMATCH") << "\n";
  return got == expected ? 0 : 1;
}
