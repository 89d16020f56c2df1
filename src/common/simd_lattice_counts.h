// The lattice_counts kernel body, shared by the three SIMD tiers. Each tier
// TU includes this header and instantiates LatticeCountsImpl with its own
// block type (one 64-bit word, one 256-bit or one 512-bit vector), so the
// walk is written once and compiled under each tier's -m flags. Everything
// here has internal linkage: the instantiations in different TUs are
// distinct functions, never merged by the linker.
//
// For every block of base words, the walk visits the lattice's chain tree
// depth-first: node m's parent is m minus its lowest attribute, so its
// children are m ∪ {j} for every attribute j below m's lowest. A child's
// block is its parent's block ∧ pred_j; when that is all zero, so is every
// descendant's, and the whole subtree is skipped. Each surviving node adds
// the popcount of its block into counts[m].
#ifndef FALCON_COMMON_SIMD_LATTICE_COUNTS_H_
#define FALCON_COMMON_SIMD_LATTICE_COUNTS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/simd.h"

namespace falcon {
namespace simd {
namespace internal {
namespace {

// Ops supplies: kWords (64-bit words per block), V (the block type),
// Load(const uint64_t*) (unaligned), And(V, V), Zero(V) and Pop(V).
template <typename Ops>
void WalkBlock(typename Ops::V base, const typename Ops::V* pred, size_t k,
               size_t* counts) {
  using V = typename Ops::V;
  struct Frame {
    V v;
    uint32_t node;
    uint32_t next;  // Children still to visit: attributes [0, next).
  };
  Frame stack[kLatticeCountsMaxAttrs + 1];
  counts[0] += Ops::Pop(base);
  size_t sp = 0;
  stack[0] = {base, 0, static_cast<uint32_t>(k)};
  while (true) {
    Frame& f = stack[sp];
    if (f.next == 0) {
      if (sp == 0) return;
      --sp;
      continue;
    }
    uint32_t j = --f.next;
    V child = Ops::And(f.v, pred[j]);
    if (Ops::Zero(child)) continue;
    uint32_t node = f.node | (uint32_t{1} << j);
    counts[node] += Ops::Pop(child);
    if (j > 0) stack[++sp] = {child, node, j};
  }
}

template <typename Ops>
void LatticeCountsImpl(const uint64_t* base, const uint64_t* const* preds,
                       size_t k, const uint32_t* words, size_t n,
                       size_t* counts) {
  using V = typename Ops::V;
  constexpr size_t kW = Ops::kWords;
  V pred[kLatticeCountsMaxAttrs];
  // Copies the block's words into zero-padded stack buffers, for the tail
  // of the full range and for every block of the word-list form.
  uint64_t base_buf[kW];
  uint64_t pred_buf[kLatticeCountsMaxAttrs][kW];
  auto walk_gathered = [&](const uint32_t* idx, size_t len) {
    std::memset(base_buf, 0, sizeof(base_buf));
    for (size_t w = 0; w < len; ++w) base_buf[w] = base[idx[w]];
    V b = Ops::Load(base_buf);
    if (Ops::Zero(b)) return;
    for (size_t j = 0; j < k; ++j) {
      std::memset(pred_buf[j], 0, sizeof(pred_buf[j]));
      for (size_t w = 0; w < len; ++w) pred_buf[j][w] = preds[j][idx[w]];
      pred[j] = Ops::Load(pred_buf[j]);
    }
    WalkBlock<Ops>(b, pred, k, counts);
  };

  if (words != nullptr) {
    for (size_t i = 0; i < n; i += kW) {
      walk_gathered(words + i, n - i < kW ? n - i : kW);
    }
    return;
  }
  size_t i = 0;
  for (; i + kW <= n; i += kW) {
    V b = Ops::Load(base + i);
    if (Ops::Zero(b)) continue;
    for (size_t j = 0; j < k; ++j) pred[j] = Ops::Load(preds[j] + i);
    WalkBlock<Ops>(b, pred, k, counts);
  }
  if (i < n) {
    uint32_t idx[kW];
    for (size_t w = 0; w < n - i; ++w) idx[w] = static_cast<uint32_t>(i + w);
    walk_gathered(idx, n - i);
  }
}

}  // namespace
}  // namespace internal
}  // namespace simd
}  // namespace falcon

#endif  // FALCON_COMMON_SIMD_LATTICE_COUNTS_H_
