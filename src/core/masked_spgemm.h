// Masked SpGEMM on the tile format: C = (A*B) .* structure(M).
//
// The GraphBLAS-style masked product is the natural extension of
// TileSpGEMM for the graph workloads the paper motivates (triangle
// counting computes (L*L).*L). The mask composes with the tile design
// without a pipeline of its own: SpgemmContext::run_masked runs the one
// SpGEMM pipeline with M's tile layout as step 1's output (pruning whole
// output tiles before any arithmetic). Step 2 then finishes every tile in
// one visit: it intersects once, ANDs each B row mask with M's row mask,
// and accumulates only the products that survive, in the plain product's
// order, into a buffer laid out like M (C is a subset of M). The hit masks
// are C's structure, and step 3 only places the values. Products outside
// the mask are never computed and the intermediate (L*L) is never
// materialised. Budget degradation, cancellation and SIMD dispatch apply
// as for run(); the pair-cache and fused-path settings have no effect.
#pragma once

#include "core/tile_spgemm.h"

namespace tsg {

/// C = (A*B) .* structure(mask). Values come from the product; entries of
/// the product outside the mask's pattern are dropped (and never computed).
/// Transient-context wrapper around SpgemmContext::run_masked — iterated
/// callers should hold a context instead (see spgemm_context.h).
template <class T>
TileMatrix<T> tile_spgemm_masked(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                 const TileMatrix<T>& mask,
                                 const TileSpgemmOptions& options = {});

/// CSR in/out: runs the direct-CSR pipeline of SpgemmContext::run_csr with
/// the mask (each distinct operand converts to tiles once; C is written
/// straight into CSR). Transient context.
template <class T>
Csr<T> spgemm_tile_masked(const Csr<T>& a, const Csr<T>& b, const Csr<T>& mask,
                          const TileSpgemmOptions& options = {});

extern template TileMatrix<double> tile_spgemm_masked(const TileMatrix<double>&,
                                                      const TileMatrix<double>&,
                                                      const TileMatrix<double>&,
                                                      const TileSpgemmOptions&);
extern template TileMatrix<float> tile_spgemm_masked(const TileMatrix<float>&,
                                                     const TileMatrix<float>&,
                                                     const TileMatrix<float>&,
                                                     const TileSpgemmOptions&);
extern template Csr<double> spgemm_tile_masked(const Csr<double>&, const Csr<double>&,
                                               const Csr<double>&, const TileSpgemmOptions&);
extern template Csr<float> spgemm_tile_masked(const Csr<float>&, const Csr<float>&,
                                              const Csr<float>&, const TileSpgemmOptions&);

}  // namespace tsg
