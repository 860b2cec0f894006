#include "core/step3.h"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/parallel.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_workspace.h"
#include "core/tile_convert.h"
#include "core/tile_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tsg {

template <class T, class S, class Sink>
void step3_numeric(const TileMatrix<T>& a, const TileMatrix<T>& b,
                   const TileLayoutCsc& b_csc, const TileStructure& structure,
                   const TileSpgemmOptions& options, const Step2Result& symbolic,
                   const Sink& sink, SpgemmWorkspace<T>& ws, const ExecutionPlan& plan,
                   const T* masked_val) {
  constexpr bool kCsr = std::is_same_v<Sink, CsrSink<T>>;
  static_assert(kCsr || std::is_same_v<Sink, TileSink<T>>, "step 3 writes a TileSink or CsrSink");
  const offset_t ntiles = structure.num_tiles();
  ws.ensure_threads(max_workers());
  const bool use_cache =
      plan.cache_pairs && ws.pair_slot.size() == static_cast<std::size_t>(ntiles);
  const bool use_staged = plan.fuse_light && plan.cache_pairs &&
                          ws.staged_slot.size() == static_cast<std::size_t>(ntiles);

  // Numeric kernel table, resolved once per call. Materialize is safe to
  // aim at C's shared arrays at every level (exact-store contract); so is
  // the dense compress where the level says compress_exact
  // (accumulate_tile bounces through a scratch otherwise).
  const simd::NumericOps& nops = simd::numeric_ops(effective_simd_level(options));

  // Per-tile detail instruments (see step2.cpp); the gate is read once per
  // call so the hot loop branches on a local bool.
  const bool detail_metrics = obs::metrics_detail_enabled();
  static obs::Counter& m_dense =
      obs::MetricsRegistry::instance().counter("spgemm.accumulator.dense");
  static obs::Counter& m_sparse =
      obs::MetricsRegistry::instance().counter("spgemm.accumulator.sparse");
  static obs::Histogram& m_visit_us = obs::MetricsRegistry::instance().histogram(
      "spgemm.tile_visit_us", {1, 2, 5, 10, 25, 50, 100, 1000});

  parallel_for(offset_t{0}, ntiles, [&](offset_t i) {
    // Guard, not inline observes: the staged and empty-tile paths leave
    // early and must still land in the duration histogram.
    struct VisitGuard {
      bool on;
      double start_us;
      obs::Histogram& hist;
      ~VisitGuard() {
        if (on) {
          hist.observe(static_cast<std::int64_t>(obs::TraceCollector::now_us() - start_us));
        }
      }
    } visit{detail_metrics, detail_metrics ? obs::TraceCollector::now_us() : 0.0, m_visit_us};
    // Cooperative cancellation, every 64th tile (see step2.cpp): skip the
    // tile, never throw. C's values for skipped tiles stay unwritten — the
    // pipeline layer discards the partial output when it converts the
    // latched reason.
    if ((i & 63) == 0) {
      plan.cancel.note_progress();
      if (plan.cancel.should_stop()) return;
    }
    const offset_t t = plan.order != nullptr ? plan.order[i] : i;
    const index_t tile_i = structure.tile_row_idx[static_cast<std::size_t>(t)];
    const index_t tile_j = structure.tile_col_idx[static_cast<std::size_t>(t)];
    const std::size_t rows_at = static_cast<std::size_t>(t) * kTileDim;
    const offset_t nz_base = symbolic.tile_nnz[static_cast<std::size_t>(t)];
    const auto nnz_c =
        static_cast<index_t>(symbolic.tile_nnz[static_cast<std::size_t>(t) + 1] - nz_base);
    const rowmask_t* mask_c = symbolic.mask.data() + rows_at;
    const std::uint8_t* row_ptr_c = symbolic.row_ptr.data() + rows_at;
    const index_t col_base = tile_j * kTileDim;

    // Step 1 may keep tiles that turned out empty. They have nothing to
    // write, and when all of C is empty its arrays have no storage at all.
    if (nnz_c == 0) return;
    if constexpr (!kCsr) {
      // Materialise the local row/column indices from the masks; the mask
      // bit order is the storage order.
      nops.materialize(mask_c, sink.row_idx + nz_base, sink.col_idx + nz_base);
    }

    if (plan.out_mask != nullptr) {
      // Masked: step 2 finished the tile. Tile output already holds its
      // values in place; CSR output scatters them from the bound buffer.
      if constexpr (kCsr) {
        detail::scatter_tile_rows(mask_c, masked_val + nz_base, col_base,
                                  sink.row_off + rows_at, sink.col_idx, sink.val);
      }
      return;
    }

    if (use_staged) {
      // Fused path: step 2 already accumulated this tile's values.
      const detail::TileSlot& s = ws.staged_slot[static_cast<std::size_t>(t)];
      if (s.count > 0) {
        const T* staged = ws.slot(static_cast<int>(s.thread)).staged.data() + s.offset;
        if constexpr (kCsr) {
          detail::scatter_tile_rows(mask_c, staged, col_base, sink.row_off + rows_at,
                                    sink.col_idx, sink.val);
        } else {
          std::copy_n(staged, nnz_c, sink.val + nz_base);
        }
        return;
      }
    }

    // Gather the matched pairs: a borrowed span from the step-2 cache when
    // this tile's cost bin recorded one, otherwise by re-running the
    // intersection (the paper's zero-global-memory choice, which the plan
    // keeps for light bins and the budget fallback).
    const MatchedPair* pair_data = nullptr;
    std::size_t pair_count = 0;
    bool cached = false;
    if (use_cache) {
      const detail::TileSlot& s = ws.pair_slot[static_cast<std::size_t>(t)];
      if (s.thread != detail::kTileSlotUncached) {
        pair_data = ws.slot(static_cast<int>(s.thread)).cache.data() + s.offset;
        pair_count = s.count;
        cached = true;
      }
    }
    if (!cached) {
      typename SpgemmWorkspace<T>::ThreadSlot& slot = ws.slot(worker_rank());
      slot.intersect(a, b_csc, tile_i, tile_j);
      pair_data = slot.pairs.data();
      pair_count = slot.pairs.size();
    }

    // Tile output: accumulate straight into the tile's nnz_c values of C.
    // The sparse path fills only those; the dense path zeroes only the
    // accumulator rows it needs (see accumulate_pairs_dense). CSR output:
    // the same kernels, in the same order, fill a full-tile local scratch
    // whose rows are then scattered to their CSR positions.
    auto accumulate = [&](T* out) {
      return detail::accumulate_tile<S, kCsr>(a, b, pair_data, pair_count, mask_c, row_ptr_c,
                                              nnz_c, options, nops, out);
    };
    bool dense = false;
    if constexpr (kCsr) {
      alignas(64) T local[kTileNnzMax];
      dense = accumulate(local);
      detail::scatter_tile_rows(mask_c, local, col_base, sink.row_off + rows_at, sink.col_idx,
                                sink.val);
    } else {
      dense = accumulate(sink.val + nz_base);
    }
    if (detail_metrics) (dense ? m_dense : m_sparse).inc();
  });
}

#define TSG_STEP3_INSTANTIATE_SINK(S, T, SINK)                                               \
  template void step3_numeric<T, S, SINK<T>>(const TileMatrix<T>&, const TileMatrix<T>&,     \
                                             const TileLayoutCsc&, const TileStructure&,     \
                                             const TileSpgemmOptions&, const Step2Result&,   \
                                             const SINK<T>&, SpgemmWorkspace<T>&,            \
                                             const ExecutionPlan&, const T*);
#define TSG_STEP3_INSTANTIATE(S, T)              \
  TSG_STEP3_INSTANTIATE_SINK(S, T, TileSink) \
  TSG_STEP3_INSTANTIATE_SINK(S, T, CsrSink)
TSG_FOR_EACH_SEMIRING(TSG_STEP3_INSTANTIATE)
#undef TSG_STEP3_INSTANTIATE
#undef TSG_STEP3_INSTANTIATE_SINK

}  // namespace tsg
