// Operand validation at the SpgemmContext API boundary.
//
// The kernels themselves trust their inputs (like the GPU kernels of the
// paper's artifact) — so a malformed operand, an overflowed offset, or an
// unexpected NaN must be caught *before* the pipeline runs. These helpers
// turn the matrix-layer invariant walks into tsg::Status values, graded by
// ValidationLevel:
//
//   kOff    nothing here runs (dimension compatibility is still checked by
//           the caller).
//   kCheap  O(rows + tiles): array sizes vs. header counts, monotone
//           pointers, index-overflow symptoms (negative nnz, negative
//           offsets), and a mask's per-tile nnz against its row masks.
//           Cheap enough to leave on by default.
//   kFull   the complete invariant walk (TileMatrix/Csr::validate(), which
//           rebuilds masks and brackets every nonzero) plus the NanPolicy
//           scan over the values.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/tile_format.h"
#include "matrix/csr.h"

namespace tsg {
namespace detail {

/// NanPolicy::kReject scan: first non-finite value fails the operand.
template <class Vec>
inline Status scan_finite(const Vec& vals, const char* name) {
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (!std::isfinite(static_cast<double>(vals[i]))) {
      return Status::invalid_argument(std::string(name) + ": non-finite value at nonzero " +
                                      std::to_string(i) + " (NanPolicy::kReject)");
    }
  }
  return Status{};
}

}  // namespace detail

/// Grade-`level` check of a tile-format operand named `name` ("A", "B",
/// "mask"). Returns the first violation found, classified as
/// kInvalidArgument (malformed structure) or kIndexOverflow (a count or
/// offset that has wrapped negative / out of range).
template <class T>
Status validate_tile_operand(const TileMatrix<T>& m, const char* name, ValidationLevel level,
                             NanPolicy nan_policy) {
  if (level == ValidationLevel::kOff) return Status{};
  const std::string who(name);

  if (m.rows < 0 || m.cols < 0) {
    return Status::index_overflow(who + ": negative dimensions (index_t overflow)");
  }
  if (m.tile_rows != ceil_div(m.rows, kTileDim) || m.tile_cols != ceil_div(m.cols, kTileDim)) {
    return Status::invalid_argument(who + ": tile grid inconsistent with dimensions");
  }
  // An empty (default-constructed) matrix carries no arrays at all; that is
  // a valid operand for a 0x0 multiply.
  if (m.tile_ptr.empty()) {
    if (m.tile_rows != 0 || !m.tile_col_idx.empty() || !m.val.empty()) {
      return Status::invalid_argument(who + ": missing tile_ptr");
    }
    return Status{};
  }
  if (m.tile_ptr.size() != static_cast<std::size_t>(m.tile_rows) + 1) {
    return Status::invalid_argument(who + ": tile_ptr size does not match tile_rows+1");
  }
  const offset_t ntiles = m.num_tiles();
  if (m.tile_ptr.front() != 0 || m.tile_ptr.back() != ntiles) {
    return Status::invalid_argument(who + ": tile_ptr does not bracket the tile arrays");
  }
  for (index_t tr = 0; tr < m.tile_rows; ++tr) {
    const offset_t lo = m.tile_ptr[static_cast<std::size_t>(tr)];
    const offset_t hi = m.tile_ptr[static_cast<std::size_t>(tr) + 1];
    if (lo < 0) return Status::index_overflow(who + ": negative tile_ptr entry");
    if (hi < lo) {
      return Status::invalid_argument(who + ": tile_ptr not monotone at tile row " +
                                      std::to_string(tr));
    }
  }
  const bool empty_nnz_ok = ntiles == 0 && m.tile_nnz.empty();
  if (!empty_nnz_ok && m.tile_nnz.size() != static_cast<std::size_t>(ntiles) + 1) {
    return Status::invalid_argument(who + ": tile_nnz size does not match numtiles+1");
  }
  if (!m.tile_nnz.empty() && m.tile_nnz.front() != 0) {
    return Status::invalid_argument(who + ": tile_nnz does not start at 0");
  }
  const offset_t nnz = m.nnz();
  if (nnz < 0) return Status::index_overflow(who + ": nnz overflowed offset_t");
  // Widened size bookkeeping: numtiles*16 cannot wrap std::size_t with real
  // inputs, but a corrupted header can make it try.
  std::size_t per_row_entries = 0;
  if (!checked_mul(static_cast<std::size_t>(ntiles), static_cast<std::size_t>(kTileDim),
                   per_row_entries)) {
    return Status::index_overflow(who + ": numtiles*16 overflows size arithmetic");
  }
  if (m.row_ptr.size() != per_row_entries || m.mask.size() != per_row_entries) {
    return Status::invalid_argument(who + ": row_ptr/mask size does not match numtiles*16");
  }
  if (m.row_idx.size() != static_cast<std::size_t>(nnz) ||
      m.col_idx.size() != static_cast<std::size_t>(nnz) ||
      m.val.size() != static_cast<std::size_t>(nnz)) {
    return Status::invalid_argument(who + ": nonzero array sizes inconsistent with nnz");
  }

  if (level == ValidationLevel::kFull) {
    if (std::string err = m.validate(); !err.empty()) {
      return Status::invalid_argument(who + ": " + err);
    }
    if (nan_policy == NanPolicy::kReject) {
      if (Status s = detail::scan_finite(m.val, name); !s.ok()) return s;
    }
  }
  return Status{};
}

/// A masked product writes C's values into slices laid out by the mask's
/// tile_nnz (C is a subset of M), so at kCheap and above each mask tile's
/// extent must equal its row masks' popcount: O(tiles). Call after
/// validate_tile_operand has passed the mask.
template <class T>
Status validate_mask_bounds(const TileMatrix<T>& m, ValidationLevel level) {
  if (level == ValidationLevel::kOff) return Status{};
  for (offset_t t = 0; t < m.num_tiles(); ++t) {
    std::uint64_t w[kTileMaskWords];
    pack_tile_words(m.tile_mask(t), w);
    if (tilemask_popcount(w) != m.tile_nnz_of(t)) {
      return Status::invalid_argument("mask: tile " + std::to_string(t) +
                                      " nnz does not match its row masks");
    }
  }
  return Status{};
}

/// Grade-`level` check of a CSR operand (try_run_csr boundary).
template <class T>
Status validate_csr_operand(const Csr<T>& m, const char* name, ValidationLevel level,
                            NanPolicy nan_policy) {
  if (level == ValidationLevel::kOff) return Status{};
  const std::string who(name);

  if (m.rows < 0 || m.cols < 0) {
    return Status::index_overflow(who + ": negative dimensions (index_t overflow)");
  }
  if (m.row_ptr.empty()) {
    if (m.rows != 0 || !m.col_idx.empty() || !m.val.empty()) {
      return Status::invalid_argument(who + ": missing row_ptr");
    }
    return Status{};
  }
  if (m.row_ptr.size() != static_cast<std::size_t>(m.rows) + 1) {
    return Status::invalid_argument(who + ": row_ptr size does not match rows+1");
  }
  if (m.row_ptr.front() != 0) {
    return Status::invalid_argument(who + ": row_ptr does not start at 0");
  }
  for (index_t i = 0; i < m.rows; ++i) {
    const offset_t lo = m.row_ptr[static_cast<std::size_t>(i)];
    const offset_t hi = m.row_ptr[static_cast<std::size_t>(i) + 1];
    if (lo < 0) return Status::index_overflow(who + ": negative row_ptr entry");
    if (hi < lo) {
      return Status::invalid_argument(who + ": row_ptr not monotone at row " + std::to_string(i));
    }
  }
  const offset_t nnz = m.nnz();
  if (nnz < 0) return Status::index_overflow(who + ": nnz overflowed offset_t");
  if (m.col_idx.size() != static_cast<std::size_t>(nnz) ||
      m.val.size() != static_cast<std::size_t>(nnz)) {
    return Status::invalid_argument(who + ": col_idx/val sizes inconsistent with nnz");
  }

  if (level == ValidationLevel::kFull) {
    if (std::string err = m.validate(); !err.empty()) {
      return Status::invalid_argument(who + ": " + err);
    }
    if (nan_policy == NanPolicy::kReject) {
      if (Status s = detail::scan_finite(m.val, name); !s.ok()) return s;
    }
  }
  return Status{};
}

}  // namespace tsg
