#include "linalg/slicedrank.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <stdexcept>

#include "linalg/incremental_basis.h"

namespace rnt::linalg {

namespace {

// ---------------------------------------------------------------------------
// Lane-dispatched inner passes.
//
// The four hot loops below are pure unit-stride word streams, written once
// as a macro body and instantiated per target so the compiler vectorizes
// each instantiation at its own width.  `#pragma omp simd` is a portable
// hint (active under -fopenmp-simd, harmless otherwise); the x86 clones
// add target attributes so the 256/512-bit versions exist in the binary
// regardless of baseline -march, selected at runtime via cpu detection.
// Every clone computes identical bits — width is purely a speed knob,
// which is what the forced-scalar parity tests pin down.
//
// GF(3) cells are two planes (lo = "value 1", hi = "value 2").  The sum
// z = x + y with x=(a,b), y=(c,d) in that encoding is
//   zl = (a & ~(c|d)) | (c & ~(a|b)) | (b & d)
//   zh = (b & ~(c|d)) | (d & ~(a|b)) | (a & c)
// (verified over all nine value pairs in test_slicedrank).  Negation is a
// plane swap (-1 == 2, -2 == 1), so subtracting v*pivot for v in {1,2}
// is one masked-select of the pivot planes followed by one addition:
// v == 2 lanes subtract 2P == add P; v == 1 lanes subtract P == add the
// swapped planes.
// ---------------------------------------------------------------------------

#define RNT_LANE_BODY(TARGET, SUFFIX)                                         \
  TARGET void xor_masked_##SUFFIX(std::uint64_t* dst,                         \
                                  const std::uint64_t* src,                   \
                                  std::uint64_t mask, std::size_t n) {        \
    _Pragma("omp simd") for (std::size_t i = 0; i < n; ++i) {                 \
      dst[i] ^= src[i] & mask;                                                \
    }                                                                         \
  }                                                                           \
  TARGET void gf3_step_##SUFFIX(std::uint64_t* lo, std::uint64_t* hi,         \
                                const std::uint64_t* plo,                     \
                                const std::uint64_t* phi, std::uint64_t v1,   \
                                std::uint64_t v2, std::size_t n) {            \
    _Pragma("omp simd") for (std::size_t i = 0; i < n; ++i) {                 \
      const std::uint64_t cl = (phi[i] & v1) | (plo[i] & v2);                 \
      const std::uint64_t ch = (plo[i] & v1) | (phi[i] & v2);                 \
      const std::uint64_t a = lo[i];                                          \
      const std::uint64_t b = hi[i];                                          \
      const std::uint64_t nx = ~(a | b);                                      \
      const std::uint64_t ny = ~(cl | ch);                                    \
      lo[i] = (a & ny) | (cl & nx) | (b & ch);                                \
      hi[i] = (b & ny) | (ch & nx) | (a & cl);                                \
    }                                                                         \
  }                                                                           \
  TARGET std::uint64_t or_reduce_##SUFFIX(const std::uint64_t* p,             \
                                          std::size_t n) {                    \
    std::uint64_t acc = 0;                                                    \
    _Pragma("omp simd reduction(| : acc)") for (std::size_t i = 0; i < n;     \
                                                ++i) {                        \
      acc |= p[i];                                                            \
    }                                                                         \
    return acc;                                                               \
  }                                                                           \
  TARGET std::uint64_t or_reduce2_##SUFFIX(const std::uint64_t* a,            \
                                           const std::uint64_t* b,            \
                                           std::size_t n) {                   \
    std::uint64_t acc = 0;                                                    \
    _Pragma("omp simd reduction(| : acc)") for (std::size_t i = 0; i < n;     \
                                                ++i) {                        \
      acc |= a[i] | b[i];                                                     \
    }                                                                         \
    return acc;                                                               \
  }

RNT_LANE_BODY(static, scalar)

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define RNT_X86_LANES 1
RNT_LANE_BODY(static __attribute__((target("avx2"))), simd256)
RNT_LANE_BODY(static __attribute__((target("avx512f"))), simd512)
#endif

#undef RNT_LANE_BODY

struct LaneOps {
  void (*xor_masked)(std::uint64_t*, const std::uint64_t*, std::uint64_t,
                     std::size_t);
  void (*gf3_step)(std::uint64_t*, std::uint64_t*, const std::uint64_t*,
                   const std::uint64_t*, std::uint64_t, std::uint64_t,
                   std::size_t);
  std::uint64_t (*or_reduce)(const std::uint64_t*, std::size_t);
  std::uint64_t (*or_reduce2)(const std::uint64_t*, const std::uint64_t*,
                              std::size_t);
};

constexpr LaneOps kScalarOps = {xor_masked_scalar, gf3_step_scalar,
                                or_reduce_scalar, or_reduce2_scalar};
#ifdef RNT_X86_LANES
constexpr LaneOps kSimd256Ops = {xor_masked_simd256, gf3_step_simd256,
                                 or_reduce_simd256, or_reduce2_simd256};
constexpr LaneOps kSimd512Ops = {xor_masked_simd512, gf3_step_simd512,
                                 or_reduce_simd512, or_reduce2_simd512};
#endif

const LaneOps& ops_for(SliceLane lane) {
#ifdef RNT_X86_LANES
  if (lane == SliceLane::kSimd256) return kSimd256Ops;
  if (lane == SliceLane::kSimd512) return kSimd512Ops;
#endif
  return kScalarOps;
}

}  // namespace

SliceLane resolve_slice_lane(SliceLane requested) {
  SliceLane best = SliceLane::kScalar64;
#ifdef RNT_X86_LANES
  if (__builtin_cpu_supports("avx2")) best = SliceLane::kSimd256;
  if (__builtin_cpu_supports("avx512f")) best = SliceLane::kSimd512;
#endif
  if (requested == SliceLane::kAuto) return best;
  return static_cast<int>(requested) <= static_cast<int>(best) ? requested
                                                               : best;
}

const char* slice_lane_name(SliceLane lane) {
  switch (lane) {
    case SliceLane::kAuto:
      return "auto";
    case SliceLane::kScalar64:
      return "scalar";
    case SliceLane::kSimd256:
      return "simd256";
    case SliceLane::kSimd512:
      return "simd512";
  }
  return "unknown";
}

SliceLane parse_slice_lane(const std::string& name) {
  if (name.empty() || name == "auto") return SliceLane::kAuto;
  if (name == "scalar") return SliceLane::kScalar64;
  if (name == "simd256") return SliceLane::kSimd256;
  if (name == "simd512") return SliceLane::kSimd512;
  throw std::invalid_argument(
      "unknown slice lane '" + name +
      "' (expected auto, scalar, simd256 or simd512)");
}

SlicedBasis::SlicedBasis(std::size_t cols, SliceLane lane)
    : cols_(cols), lane_(resolve_slice_lane(lane)) {
  scratch2_.resize(cols_);
  scratch3_.resize(2 * cols_);
}

std::size_t SlicedBasis::slot_for(std::uint32_t col) {
  auto it = std::lower_bound(
      slots_.begin(), slots_.end(), col,
      [](const Slot& s, std::uint32_t c) { return s.col < c; });
  if (it != slots_.end() && it->col == col) {
    return static_cast<std::size_t>(it - slots_.begin());
  }
  Slot s;
  s.col = col;
  s.plane2 = planes2_.size();
  s.plane3 = planes3_.size();
  planes2_.resize(planes2_.size() + cols_, 0);
  planes3_.resize(planes3_.size() + 2 * cols_, 0);
  // Index must be taken before insert(): evaluation order of the operands
  // of `insert(it, s) - begin()` is unspecified, and a reallocating insert
  // invalidates a begin() evaluated first.
  const std::size_t idx = static_cast<std::size_t>(it - slots_.begin());
  slots_.insert(it, s);
  return idx;
}

SlicedBasis::Reduction SlicedBasis::reduce(
    std::span<const std::uint64_t> row_bits, std::uint64_t alive2,
    std::uint64_t alive3) const {
  Reduction out;
  const bool do2 = alive2 != 0;
  const bool do3 = alive3 != 0;
  if ((!do2 && !do3) || cols_ == 0) return out;
  const LaneOps& ops = ops_for(lane_);
  std::uint64_t* s2 = scratch2_.data();
  std::uint64_t* s3lo = scratch3_.data();
  std::uint64_t* s3hi = s3lo + cols_;
  // Broadcast the shared 0/1 row into the instance dimension: the value
  // word at link l is `alive` in every instance where the row takes part,
  // zero elsewhere (a fresh 0/1 row always encodes as the lo plane).
  for (std::size_t l = 0; l < cols_; ++l) {
    const std::uint64_t bit = (row_bits[l / 64] >> (l % 64)) & 1u;
    const std::uint64_t mask = ~(bit - 1);  // bit ? ~0 : 0
    if (do2) s2[l] = alive2 & mask;
    if (do3) {
      s3lo[l] = alive3 & mask;
      s3hi[l] = 0;
    }
  }
  // One ascending pass over the pivot columns.  A pivot plane is zero
  // below its own column, so the scratch row stays clean below the scan
  // point and the remainder's lowest nonzero column is final.
  for (const Slot& s : slots_) {
    const std::uint32_t c = s.col;
    if (do2 && s.mask2 != 0) {
      const std::uint64_t hit = s2[c] & s.mask2;
      if (hit != 0) {
        ops.xor_masked(s2 + c, planes2_.data() + s.plane2 + c, hit,
                       cols_ - c);
      }
    }
    if (do3 && s.mask3 != 0) {
      const std::uint64_t v1 = s3lo[c] & s.mask3;
      const std::uint64_t v2 = s3hi[c] & s.mask3;
      if ((v1 | v2) != 0) {
        const std::uint64_t* plo = planes3_.data() + s.plane3;
        ops.gf3_step(s3lo + c, s3hi + c, plo + c, plo + cols_ + c, v1, v2,
                     cols_ - c);
      }
    }
  }
  if (do2) out.nonzero2 = ops.or_reduce(s2, cols_);
  if (do3) out.nonzero3 = ops.or_reduce2(s3lo, s3hi, cols_);
  return out;
}

void SlicedBasis::install(std::uint64_t add2, std::uint64_t add3) {
  std::uint64_t pend2 = add2;
  std::uint64_t pend3 = add3;
  const std::uint64_t* s2 = scratch2_.data();
  const std::uint64_t* s3lo = scratch3_.data();
  const std::uint64_t* s3hi = s3lo + cols_;
  for (std::uint32_t l = 0; l < cols_ && (pend2 | pend3) != 0; ++l) {
    const std::uint64_t new2 = s2[l] & pend2;
    const std::uint64_t new3 = (s3lo[l] | s3hi[l]) & pend3;
    if ((new2 | new3) == 0) continue;
    const std::size_t slot = slot_for(l);
    Slot& s = slots_[slot];
    if (new2 != 0) {
      std::uint64_t* p = planes2_.data() + s.plane2;
      for (std::size_t k = l; k < cols_; ++k) p[k] |= s2[k] & new2;
      s.mask2 |= new2;
      for (std::uint64_t m = new2; m != 0; m &= m - 1) {
        ++rank2_[std::countr_zero(m)];
      }
      pend2 &= ~new2;
    }
    if (new3 != 0) {
      // Normalize pivots to value 1: instances whose leading value is 2
      // get the row scaled by 2 (2*2 == 1 mod 3), i.e. a plane swap.
      const std::uint64_t m2 = s3hi[l] & new3;
      std::uint64_t* plo = planes3_.data() + s.plane3;
      std::uint64_t* phi = plo + cols_;
      for (std::size_t k = l; k < cols_; ++k) {
        const std::uint64_t lo = s3lo[k];
        const std::uint64_t hi = s3hi[k];
        plo[k] |= ((lo & ~m2) | (hi & m2)) & new3;
        phi[k] |= ((hi & ~m2) | (lo & m2)) & new3;
      }
      s.mask3 |= new3;
      for (std::uint64_t m = new3; m != 0; m &= m - 1) {
        ++rank3_[std::countr_zero(m)];
      }
      pend3 &= ~new3;
    }
  }
  if ((pend2 | pend3) != 0) {
    throw std::logic_error(
        "SlicedBasis::install: add mask not within the last reduce's "
        "nonzero remainder");
  }
}

namespace {

/// kFloat tier: an append-only basis shared by groups whose accepted-row
/// histories are prefixes of one chain; rows[i] is the source row behind
/// basis row i, so a shorter-prefix group recognizes its own next row in
/// a sibling's append and adopts it instead of re-reducing.
struct FloatTrunk {
  IncrementalBasis basis;
  std::vector<std::uint32_t> rows;

  explicit FloatTrunk(std::size_t cols)
      : basis(cols, kDefaultTolerance, /*track_combinations=*/false) {}
  FloatTrunk(const FloatTrunk& other, std::size_t prefix)
      : basis(other.basis, prefix),
        rows(other.rows.begin(), other.rows.begin() + prefix) {}
};

/// The columns of packed 0/1 row `bits` below `cols` that hold a one,
/// ascending: the row's float-tier form.
void ones_of(std::span<const std::uint64_t> bits, std::size_t cols,
             std::vector<std::uint32_t>& out) {
  out.clear();
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t m = bits[w]; m != 0; m &= m - 1) {
      const std::size_t col = w * 64 + std::countr_zero(m);
      if (col >= cols) return;
      out.push_back(static_cast<std::uint32_t>(col));
    }
  }
}

/// Lanes whose accepted-row histories coincide so far.  Their bases —
/// sliced GF planes and the fallback tier's state alike — are identical,
/// so one ambiguous-row resolution answers every lane in the group.
/// Once materialized, the group's float basis is the first `brank` rows
/// of `trunk`, reflecting kept[0..fvalid); splits share the trunk and
/// just pin a shorter prefix (appends never disturb it).
struct LaneGroup {
  std::uint64_t mask = 0;              ///< Member lanes of this block.
  std::vector<std::uint32_t> kept;     ///< Accepted rows, ascending.
  std::shared_ptr<FloatTrunk> trunk;
  std::size_t fvalid = 0;
  std::size_t brank = 0;
};

}  // namespace

std::vector<std::size_t> sliced_ranks(const BitRows& rows,
                                      std::span<const std::uint64_t> alive,
                                      std::size_t instances,
                                      SliceLane lane) {
  std::vector<std::size_t> ranks(instances, 0);
  if (instances == 0) return ranks;
  const std::size_t stride = (instances + 63) / 64;
  if (alive.size() < rows.rows() * stride) {
    throw std::invalid_argument(
        "sliced_ranks: need ceil(instances/64) alive words per row");
  }
  const std::size_t cols = rows.cols();
  std::vector<std::uint32_t> row_ones;  // Float-tier form of the row.
  for (std::size_t g = 0; g < stride; ++g) {
    const std::size_t lanes = std::min<std::size_t>(64, instances - g * 64);
    const std::uint64_t full =
        lanes == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << lanes) - 1);
    SlicedBasis basis(cols, lane);
    std::uint64_t synced2 = full;
    std::uint64_t synced3 = full;
    std::vector<LaneGroup> groups(1);
    groups[0].mask = full;
    // Root trunk up front: every group descends from this one by
    // splitting, so the block shares one append-only chain and late
    // materializations adopt the prefix siblings already reduced.
    groups[0].trunk = std::make_shared<FloatTrunk>(cols);
    auto catch_up = [&](LaneGroup& grp) {
      std::vector<std::uint32_t> ones;
      while (grp.fvalid < grp.kept.size()) {
        const std::uint32_t r = grp.kept[grp.fvalid];
        if (grp.brank < grp.trunk->rows.size()) {
          if (grp.trunk->rows[grp.brank] == r) {
            ++grp.brank;  // A sibling already appended it at our prefix.
            ++grp.fvalid;
            continue;
          }
          grp.trunk = std::make_shared<FloatTrunk>(*grp.trunk, grp.brank);
        }
        ones_of(rows.row(r), cols, ones);
        if (grp.trunk->basis.try_add(UnitRow{ones})) {
          grp.trunk->rows.push_back(r);
          ++grp.brank;
        }
        ++grp.fvalid;
      }
    };
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      const std::uint64_t a = alive[i * stride + g] & full;
      if (a == 0) continue;
      const auto red = basis.reduce(rows.row(i), a & synced2, a & synced3);
      std::uint64_t accept = red.nonzero2 | red.nonzero3;
      const std::uint64_t ambiguous = a & ~accept;
      // Verdict-accepted groups advance their trunk; the split below
      // must hand the rejected half the pre-verdict view of it.
      struct Restore {
        std::size_t gi;
        std::shared_ptr<FloatTrunk> trunk;
        std::size_t brank;
      };
      std::vector<Restore> restores;
      if (ambiguous != 0) {
        // Both synced fields reduced the row to zero (or both are down):
        // resolve once per history-group — every member lane holds the
        // identical committed set, so the verdict is shared.
        bool row_ones_ready = false;
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
          LaneGroup& grp = groups[gi];
          const std::uint64_t sub = grp.mask & ambiguous;
          if (sub == 0) continue;
          bool indep = false;
          if (!row_ones_ready) {
            ones_of(rows.row(i), cols, row_ones);
            row_ones_ready = true;
          }
          const UnitRow row{row_ones};
          catch_up(grp);
          const std::shared_ptr<FloatTrunk> pre_trunk = grp.trunk;
          const std::size_t pre_brank = grp.brank;
          if (grp.brank == grp.trunk->rows.size()) {
            // At the trunk tip: append in place.  Appends never
            // disturb the shorter prefixes other groups hold.
            indep = grp.trunk->basis.try_add(row);
            if (indep) {
              grp.trunk->rows.push_back(static_cast<std::uint32_t>(i));
              ++grp.brank;
            }
          } else {
            indep = grp.trunk->basis.is_independent_prefix(row, grp.brank);
            if (indep) {
              if (grp.trunk->rows[grp.brank] ==
                  static_cast<std::uint32_t>(i)) {
                ++grp.brank;  // Adopt the sibling's append.
              } else {
                grp.trunk =
                    std::make_shared<FloatTrunk>(*grp.trunk, grp.brank);
                grp.trunk->basis.try_add(row);
                grp.trunk->rows.push_back(static_cast<std::uint32_t>(i));
                ++grp.brank;
              }
            }
          }
          if (indep) {
            // Account for the kept.push_back in the split pass below.
            grp.fvalid = grp.kept.size() + 1;
            restores.push_back({gi, pre_trunk, pre_brank});
            accept |= sub;
          }
        }
      }
      // Split groups on the accept boundary: accepted lanes extend their
      // history with row i, the rest keep the old one.  Both halves keep
      // sharing the trunk — the rejected half just pins the shorter
      // (pre-verdict, for verdict-accepted groups) prefix of it.
      const std::size_t n_groups = groups.size();
      for (std::size_t gi = 0; gi < n_groups; ++gi) {
        const std::uint64_t acc = groups[gi].mask & accept;
        if (acc == 0) continue;
        if (acc != groups[gi].mask) {
          LaneGroup rest;
          rest.mask = groups[gi].mask & ~acc;
          rest.kept = groups[gi].kept;
          rest.trunk = groups[gi].trunk;
          rest.brank = groups[gi].brank;
          rest.fvalid = std::min(groups[gi].fvalid, rest.kept.size());
          for (const Restore& r : restores) {
            if (r.gi == gi) {
              rest.trunk = r.trunk;
              rest.brank = r.brank;
              break;
            }
          }
          groups.push_back(std::move(rest));  // May invalidate references.
        }
        LaneGroup& grp = groups[gi];
        grp.mask = acc;
        grp.kept.push_back(static_cast<std::uint32_t>(i));
      }
      // A committed row a synced field reduced to zero desyncs that
      // field: it can no longer distinguish span membership exactly.
      synced2 &= ~(accept & synced2 & ~red.nonzero2);
      synced3 &= ~(accept & synced3 & ~red.nonzero3);
      basis.install(red.nonzero2 & accept, red.nonzero3 & accept);
      for (std::uint64_t m = accept; m != 0; m &= m - 1) {
        ++ranks[g * 64 + std::countr_zero(m)];
      }
    }
  }
  return ranks;
}

}  // namespace rnt::linalg
