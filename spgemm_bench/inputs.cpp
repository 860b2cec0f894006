#include "inputs.h"

#include <cmath>
#include <cstring>

#include "gen/generators.h"

namespace spgemm_bench {

void randomize_values(Csr<double>& m, std::uint64_t seed) {
  Rng rng(seed);
  for (double& v : m.val) v = rng.uniform(0.1, 1.1);
}

Csr<double> fem_operand(index_t edge, std::uint64_t seed) {
  Csr<double> a = tsg::gen::stencil_27pt(edge, edge, edge);
  randomize_values(a, seed);
  return a;
}

Csr<double> triangle_operand(int scale, double edge_factor, std::uint64_t seed) {
  const Csr<double> g = tsg::gen::symmetrized(tsg::gen::rmat(scale, edge_factor, seed));
  Csr<double> l(g.rows, g.cols);
  for (index_t i = 0; i < g.rows; ++i) {
    for (offset_t p = g.row_ptr[i]; p < g.row_ptr[i + 1]; ++p) {
      if (g.col_idx[p] < i) {
        l.col_idx.push_back(g.col_idx[p]);
        l.val.push_back(1.0);
      }
    }
    l.row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(l.col_idx.size());
  }
  return l;
}

namespace {
inline std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}
}  // namespace

std::uint64_t hash_csr(const Csr<double>& m) {
  std::uint64_t h = mix(static_cast<std::uint64_t>(m.rows), static_cast<std::uint64_t>(m.cols));
  for (offset_t p : m.row_ptr) h = mix(h, static_cast<std::uint64_t>(p));
  // Four independent lanes keep the multiply chain off the critical path.
  std::uint64_t lanes[4] = {h, h ^ 1, h ^ 2, h ^ 3};
  const std::size_t n = m.col_idx.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &m.val[i], sizeof bits);
    lanes[i & 3] = mix(lanes[i & 3], bits ^ (static_cast<std::uint64_t>(m.col_idx[i]) << 1));
  }
  for (std::uint64_t lane : lanes) h = mix(h, lane);
  return h;
}

std::string compare_to_reference(const Csr<double>& c, const RefCsr& ref, double rel_tol) {
  if (c.rows != ref.rows || c.cols != ref.cols) return "shape differs from the reference";
  if (c.nnz() != ref.nnz()) {
    return "nnz " + std::to_string(c.nnz()) + " != reference " + std::to_string(ref.nnz());
  }
  for (index_t i = 0; i <= c.rows; ++i) {
    if (c.row_ptr[i] != ref.row_ptr[static_cast<std::size_t>(i)]) {
      return "row pointer differs at row " + std::to_string(i);
    }
  }
  for (std::size_t p = 0; p < static_cast<std::size_t>(c.nnz()); ++p) {
    if (c.col_idx[p] != ref.col[p]) return "column differs at entry " + std::to_string(p);
    const double tol = rel_tol * std::max(1.0, std::fabs(ref.val[p]));
    if (!(std::fabs(c.val[p] - ref.val[p]) <= tol)) {
      return "value differs at entry " + std::to_string(p);
    }
  }
  return {};
}

std::vector<MixRequest> service_pool(std::uint64_t seed, bool small) {
  Rng rng(seed);
  auto share = [](Csr<double> m) { return std::make_shared<const Csr<double>>(std::move(m)); };
  auto seeded = [&](Csr<double> m) {
    randomize_values(m, rng.next());
    return share(std::move(m));
  };
  const index_t band_n = small ? 400 : 2000;
  const index_t cube = small ? 5 : 8;
  const int rmat_scale = small ? 7 : 9;
  const index_t blocks = small ? 4 : 12;
  const index_t block_dim = small ? 12 : 24;

  std::vector<MixRequest> pool;
  for (int variant = 0; variant < 2; ++variant) {
    const index_t half_bw = 4 + 2 * variant;
    auto band = [&] { return seeded(tsg::gen::banded(band_n, half_bw, rng.next())); };
    auto stencil = [&] { return seeded(tsg::gen::stencil_27pt(cube, cube, cube)); };
    auto power = [&] { return share(tsg::gen::rmat(rmat_scale, 6.0, rng.next())); };
    auto dense = [&] { return seeded(tsg::gen::dense_blocks(blocks, block_dim, rng.next())); };
    pool.push_back({"banded", band(), nullptr});
    pool.push_back({"banded", band(), band()});
    pool.push_back({"stencil", stencil(), nullptr});
    pool.push_back({"stencil", stencil(), stencil()});
    pool.push_back({"power_law", power(), nullptr});
    pool.push_back({"power_law", power(), power()});
    pool.push_back({"dense_block", dense(), nullptr});
    pool.push_back({"dense_block", dense(), dense()});
  }
  // An odd count: the latencies cluster by request, and with an even count
  // of equally frequent requests the median would sit on the gap between
  // two clusters and jump across it from run to run.
  pool.pop_back();
  return pool;
}

}  // namespace spgemm_bench
