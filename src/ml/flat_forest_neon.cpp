// NEON (aarch64) build of the FlatForest descend kernel — see
// flat_forest_kernels.hpp for the contract and flat_forest_avx2.cpp for the
// lane-mapping commentary. NEON has no gather, so per-lane loads feed the
// vectors; the win over the scalar kernel is the vectorized
// compare/advance/blend arithmetic and the branch-free all-leaves
// reduction. Four int32x4 groups (16 rows) run interleaved to keep
// independent load chains in flight. The operation sequence per row is
// identical to the scalar kernel — same ordered <= predicate (NaN right),
// same tree-order separate multiply/add — so results stay bit-identical.
//
// Unverified: no CI leg or test host runs aarch64, so this kernel has never
// executed under the parity suites (on x86 a neon request degrades to
// scalar). It is kept because it is the only vector path on aarch64.
#include "ml/flat_forest_kernels.hpp"

#if defined(__aarch64__) && !defined(MFPA_FORCE_SCALAR)

#include <arm_neon.h>

namespace mfpa::ml::detail {
namespace {

/// Lane state of one 4-row group.
struct LaneGroup {
  int32x4_t n;
  int32x4_t f;
  const double* rows[4];
};

inline LaneGroup make_group(std::int32_t root, std::int32_t root_feat,
                            const double* x, std::size_t cols,
                            std::size_t r) noexcept {
  LaneGroup g;
  g.n = vdupq_n_s32(root);
  g.f = vdupq_n_s32(root_feat);
  for (int i = 0; i < 4; ++i) g.rows[i] = x + (r + i) * cols;
  return g;
}

/// One descend level: per-lane loads, vector compare/advance/blend.
inline void step(LaneGroup& g, const std::int32_t* feat, const double* thr,
                 const std::int32_t* left) noexcept {
  const int32x4_t keep = vshrq_n_s32(g.f, 31);  // all-ones at a leaf
  const int32x4_t idx = vbicq_s32(g.f, keep);   // f & ~keep
  std::int32_t ni[4], ii[4];
  vst1q_s32(ni, g.n);
  vst1q_s32(ii, idx);
  // Per-lane "gathers" (NEON has none): feature values, thresholds, lefts.
  float64x2_t xv_lo = {g.rows[0][ii[0]], g.rows[1][ii[1]]};
  float64x2_t xv_hi = {g.rows[2][ii[2]], g.rows[3][ii[3]]};
  float64x2_t th_lo = {thr[ni[0]], thr[ni[1]]};
  float64x2_t th_hi = {thr[ni[2]], thr[ni[3]]};
  const int32x4_t lf = {left[ni[0]], left[ni[1]], left[ni[2]], left[ni[3]]};
  // vcleq is an ordered compare: NaN lanes yield zero and descend right,
  // exactly like the scalar `!(x <= thr)`.
  const uint64x2_t le_lo = vcleq_f64(xv_lo, th_lo);
  const uint64x2_t le_hi = vcleq_f64(xv_hi, th_hi);
  // Narrow the two 64-bit masks into one 32-bit mask (-1 iff x <= thr).
  const int32x4_t le = vreinterpretq_s32_u32(
      vcombine_u32(vmovn_u64(le_lo), vmovn_u64(le_hi)));
  // next = left + (le ? 0 : 1).
  const int32x4_t next = vaddq_s32(lf, vaddq_s32(vdupq_n_s32(1), le));
  // Leaf lanes keep their node; live lanes advance.
  g.n = vbslq_s32(vreinterpretq_u32_s32(keep), g.n, next);
  std::int32_t nn[4];
  vst1q_s32(nn, g.n);
  g.f = int32x4_t{feat[nn[0]], feat[nn[1]], feat[nn[2]], feat[nn[3]]};
}

/// True when every lane's feature sign bit is set (all lanes at a leaf).
inline bool all_leaves(const LaneGroup& g) noexcept {
  const uint32x4_t sign = vcltq_s32(g.f, vdupq_n_s32(0));
  return vminvq_u32(sign) != 0;
}

/// acc[0..3] += scale * thr[n lanes] — separate mul and add, never an FMA.
inline void deposit(const LaneGroup& g, const double* thr, double scale,
                    double* acc) noexcept {
  std::int32_t ni[4];
  vst1q_s32(ni, g.n);
  const float64x2_t vscale = vdupq_n_f64(scale);
  const float64x2_t leaf_lo = {thr[ni[0]], thr[ni[1]]};
  const float64x2_t leaf_hi = {thr[ni[2]], thr[ni[3]]};
  vst1q_f64(acc, vaddq_f64(vld1q_f64(acc), vmulq_f64(vscale, leaf_lo)));
  vst1q_f64(acc + 2,
            vaddq_f64(vld1q_f64(acc + 2), vmulq_f64(vscale, leaf_hi)));
}

void accumulate_neon(const ForestView& forest, const double* x,
                     std::size_t cols, std::size_t row_lo, std::size_t row_hi,
                     std::size_t tree_lo, std::size_t tree_hi, double* acc) {
  const std::int32_t* feat = forest.feat;
  const double* thr = forest.thr;
  const std::int32_t* left = forest.left;
  const double scale = forest.scale;
  for (std::size_t t = tree_lo; t < tree_hi; ++t) {
    const std::int32_t root = forest.roots[t];
    const std::int32_t root_feat = feat[root];
    std::size_t r = row_lo;
    if (root_feat < 0) {
      for (; r < row_hi; ++r) acc[r - row_lo] += scale * thr[root];
      continue;
    }
    // Four interleaved 4-lane groups (16 rows) keep independent dependent-
    // load chains in flight.
    for (; r + 16 <= row_hi; r += 16) {
      LaneGroup a = make_group(root, root_feat, x, cols, r);
      LaneGroup b = make_group(root, root_feat, x, cols, r + 4);
      LaneGroup c = make_group(root, root_feat, x, cols, r + 8);
      LaneGroup d = make_group(root, root_feat, x, cols, r + 12);
      for (;;) {
        step(a, feat, thr, left);
        step(b, feat, thr, left);
        step(c, feat, thr, left);
        step(d, feat, thr, left);
        if (all_leaves(a) && all_leaves(b) && all_leaves(c) &&
            all_leaves(d)) {
          break;
        }
      }
      double* out = acc + (r - row_lo);
      deposit(a, thr, scale, out);
      deposit(b, thr, scale, out + 4);
      deposit(c, thr, scale, out + 8);
      deposit(d, thr, scale, out + 12);
    }
    for (; r + 4 <= row_hi; r += 4) {
      LaneGroup a = make_group(root, root_feat, x, cols, r);
      while (!all_leaves(a)) step(a, feat, thr, left);
      deposit(a, thr, scale, acc + (r - row_lo));
    }
    for (; r < row_hi; ++r) {
      const double* row = x + r * cols;
      std::int32_t n = root;
      std::int32_t f = root_feat;
      while (f >= 0) {
        n = left[n] + static_cast<std::int32_t>(!(row[f] <= thr[n]));
        f = feat[n];
      }
      acc[r - row_lo] += scale * thr[n];
    }
  }
}

}  // namespace

AccumulateFn neon_accumulate_kernel() noexcept { return &accumulate_neon; }

}  // namespace mfpa::ml::detail

#else  // !__aarch64__ || MFPA_FORCE_SCALAR

namespace mfpa::ml::detail {

AccumulateFn neon_accumulate_kernel() noexcept { return nullptr; }

}  // namespace mfpa::ml::detail

#endif
