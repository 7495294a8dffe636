// Scenario-sliced GF(2)+GF(3) elimination: 64 instances per machine word.
//
// The scalar kernel (linalg/bitrank.h + core/kernel_er.cpp) eliminates one
// scenario's surviving matrix at a time: rows packed over *links*, one
// scenario per elimination.  This header flips the layout.  A SlicedBasis
// keeps one 64-bit word per (pivot column, link) whose bit s is the value
// that cell holds in instance s — so a single masked XOR pass over a
// pivot's link words advances the elimination of up to 64 scenarios at
// once, and per-column pivot masks track which instances have already
// consumed a pivot there.  The inner passes are dense unit-stride loops
// over the link dimension, dispatched at runtime to the widest profitable
// lane (portable `#pragma omp simd` bodies compiled per target: plain
// 64-bit words, AVX2 256-bit, AVX-512 512-bit on x86).
//
// Why two fields.  GF(2) alone under-ranks real path matrices: rows
// {a,b}, {b,c}, {a,c} have GF(2) rank 2 but rational rank 3, and on the
// bench workloads most surviving classes hit exactly this (the scalar
// kernel's "synced" GF(2) basis desyncs and every later row pays a
// floating-point fallback).  A second bit-sliced field, GF(3), closes the
// gap: each cell is two planes (lo = "value 1", hi = "value 2") and mod-3
// row updates are ~14 word ops.  The certificate is one-sided but exact:
//
//   * while every committed row of an instance was independent mod p
//     ("synced over p"), a row that reduces to nonzero mod p is certified
//     rationally independent — if it were rationally dependent, clearing
//     denominators gives an integer relation lambda_0 v = sum lambda_i v_i
//     with gcd 1; either p ∤ lambda_0 (then v lies in the mod-p span) or
//     p | lambda_0 (then the committed rows are mod-p dependent, i.e. the
//     basis was not synced).  Nonzero mod 2 *or* nonzero mod 3 from a
//     synced basis is therefore a proof of independence.
//   * a row that reduces to zero mod both 2 and 3 is *not* certified
//     dependent (6 is far below the Hadamard bound of a 0/1 minor), so
//     callers resolve the rare double-zero verdict with a floating-point
//     fallback.  Empirically GF(3) matches the rational rank on
//     essentially every surviving class this library ranks, so the
//     fallback is cold.
//
// SlicedBasis is the mechanism only (planes, masks, reduce/install); the
// sync/fallback protocol lives with the caller so the engine can keep its
// own fallback bit-for-bit identical to the scalar path.  sliced_ranks()
// below is the self-contained driver the tier-1 tests pin against the
// testkit's exact rank referee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/bitrank.h"

namespace rnt::linalg {

/// Inner-loop lane width for the sliced passes.  kAuto resolves to the
/// widest target the running CPU supports; explicit requests fall back to
/// the widest *supported* width at or below the request.  All lanes
/// compute bit-identical results — width only changes how many link words
/// one vector op touches.
enum class SliceLane : std::uint8_t {
  kAuto = 0,
  kScalar64 = 1,  ///< Plain 64-bit loop, every platform.
  kSimd256 = 2,   ///< 256-bit bodies (AVX2 on x86).
  kSimd512 = 3,   ///< 512-bit bodies (AVX-512F on x86).
};

/// Resolves kAuto (and unsupported explicit requests) to a lane the
/// running CPU can execute.  kScalar64 is always available.
SliceLane resolve_slice_lane(SliceLane requested);

const char* slice_lane_name(SliceLane lane);

/// Parses "auto" | "scalar" | "simd256" | "simd512" (throws otherwise).
SliceLane parse_slice_lane(const std::string& name);

/// Up to 64 independent incremental GF(2)+GF(3) row bases advancing in
/// lockstep.  Rows are 0/1 link vectors shared by every instance; which
/// instances a row participates in is a per-call lane mask.  Not
/// thread-safe; reduce() writes the mutable scratch install() consumes.
class SlicedBasis {
 public:
  static constexpr std::size_t kLanes = 64;

  /// `cols` is the caller's column space: the width of the packed rows it
  /// will reduce.  Every plane and scratch row spans it, so a caller whose
  /// rows are zero outside a few columns should renumber them compactly
  /// first (the kernel engine packs only the links candidate paths cross).
  explicit SlicedBasis(std::size_t cols, SliceLane lane = SliceLane::kAuto);

  std::size_t cols() const { return cols_; }
  SliceLane lane() const { return lane_; }  ///< Resolved, never kAuto.

  /// Lane masks after a reduce: bit s set iff the reduced row is nonzero
  /// in instance s over that field.  Nonzero from a synced basis
  /// certifies rational independence (header comment); zero certifies
  /// nothing by itself.
  struct Reduction {
    std::uint64_t nonzero2 = 0;
    std::uint64_t nonzero3 = 0;
  };

  /// Reduces the packed 0/1 row (LSB-first link words, BitRows layout)
  /// against every pivot, in instances `alive2` over GF(2) and `alive3`
  /// over GF(3) — callers pass alive & synced so desynced instances cost
  /// nothing.  Leaves the reduced planes in scratch for install().
  Reduction reduce(std::span<const std::uint64_t> row_bits,
                   std::uint64_t alive2, std::uint64_t alive3) const;

  /// Installs the scratch rows of the last reduce() as new pivots: the
  /// GF(2) remainder in instances `add2`, the GF(3) remainder in `add3`
  /// (each instance's pivot column is its remainder's lowest nonzero
  /// column; GF(3) pivots are normalized to value 1).  Requires
  /// add2 ⊆ last nonzero2 and add3 ⊆ last nonzero3.
  void install(std::uint64_t add2, std::uint64_t add3);

  /// Pivot count per field in instance s (== that instance's GF(p) rank
  /// over the rows installed for it).
  std::size_t rank2(std::size_t s) const { return rank2_[s]; }
  std::size_t rank3(std::size_t s) const { return rank3_[s]; }

 private:
  struct Slot {
    std::uint32_t col = 0;        ///< Pivot column, below cols_.
    std::uint64_t mask2 = 0;      ///< Instances with a GF(2) pivot here.
    std::uint64_t mask3 = 0;      ///< Instances with a GF(3) pivot here.
    std::size_t plane2 = 0;       ///< Offset into planes2_ (cols_ words).
    std::size_t plane3 = 0;       ///< Offset into planes3_ (2*cols_ words).
  };

  std::size_t slot_for(std::uint32_t col);

  std::size_t cols_ = 0;
  SliceLane lane_ = SliceLane::kScalar64;
  /// Column-sorted pivot slots; reduce() scans these ascending, which is
  /// exactly the order that keeps every instance's remainder clean below
  /// the current column.
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> planes2_;  ///< GF(2) pivot planes, per slot.
  std::vector<std::uint64_t> planes3_;  ///< GF(3) lo/hi planes, per slot.
  std::uint16_t rank2_[kLanes] = {0};
  std::uint16_t rank3_[kLanes] = {0};
  /// Scratch planes of the in-flight row: scratch2_[l] is the GF(2) value
  /// word at link l; scratch3_ holds the GF(3) lo plane in its first
  /// cols_ words and the hi plane in the next cols_.
  mutable std::vector<std::uint64_t> scratch2_;
  mutable std::vector<std::uint64_t> scratch3_;
};

/// Ranks of up to `instances` masked row subsets in one sliced sweep:
/// instance s ranks rows {i : bit s of alive[i*stride + s/64]}, where
/// stride = ceil(instances/64) words per row.  The sliced GF(2)+GF(3)
/// pass answers almost every row; ambiguous rows fall to the same lazily
/// materialized floating-point IncrementalBasis machinery the scalar
/// engine's hybrid rank uses — identical committed rows, identical
/// verdict arithmetic — so the engine's sliced and scalar kernels produce
/// bit-identical ranks.
///
/// Instances whose accepted-row histories coincide share one basis and
/// therefore one fallback verdict, so the sweep tracks lanes in
/// history-groups and pays each ambiguous resolution once per group, not
/// once per lane — the difference between this sweep beating and losing
/// to per-instance scalar elimination when many instances overlap.
std::vector<std::size_t> sliced_ranks(
    const BitRows& rows, std::span<const std::uint64_t> alive,
    std::size_t instances, SliceLane lane = SliceLane::kAuto);

}  // namespace rnt::linalg
