#include "core/search_algorithms.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace falcon {
namespace {

bool Askable(const Lattice& lat, NodeId n) {
  return lat.validity(n) == Validity::kUnknown && lat.affected_count(n) > 0;
}

/// True iff a and b are comparable in the lattice (one contains the other).
bool Linked(NodeId a, NodeId b) {
  return (a & b) == a || (a & b) == b;
}

}  // namespace

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------

void BfsSearch::Run(LatticeSearchContext& ctx) {
  Lattice& lat = ctx.lattice();
  size_t k = lat.num_attrs();
  // Level by level from the bottom (most general nodes first).
  std::vector<std::vector<NodeId>> levels(k + 1);
  for (NodeId m = 0; m < lat.num_nodes(); ++m) {
    levels[static_cast<size_t>(std::popcount(m))].push_back(m);
  }
  for (size_t level = 0; level <= k; ++level) {
    for (NodeId m : levels[level]) {
      if (!ctx.BudgetLeft()) return;
      if (!Askable(lat, m)) continue;
      ctx.Ask(m);
    }
  }
}

// ---------------------------------------------------------------------------
// DFS
// ---------------------------------------------------------------------------

void DfsSearch::Run(LatticeSearchContext& ctx) {
  Lattice& lat = ctx.lattice();
  size_t k = lat.num_attrs();
  // Explicit stack; children of m are m plus one attribute with an index
  // above m's highest set bit (each node visited once, standard subset DFS).
  std::vector<NodeId> stack;
  for (size_t i = k; i-- > 0;) {
    stack.push_back(NodeId{1} << i);
  }
  while (!stack.empty() && ctx.BudgetLeft()) {
    NodeId m = stack.back();
    stack.pop_back();
    if (Askable(lat, m)) {
      ctx.Ask(m);
      if (!ctx.BudgetLeft()) return;
    }
    int high = 31 - std::countl_zero(m | 1u);
    std::vector<NodeId> children;
    for (size_t i = k; i-- > static_cast<size_t>(high) + 1;) {
      children.push_back(m | (NodeId{1} << i));
    }
    stack.insert(stack.end(), children.begin(), children.end());
  }
}

// ---------------------------------------------------------------------------
// Ducc-style zigzag
// ---------------------------------------------------------------------------

void DuccSearch::Run(LatticeSearchContext& ctx) {
  Lattice& lat = ctx.lattice();
  size_t k = lat.num_attrs();

  // Ducc is a one-hop glider: seeds and hole jumps start at the lowest
  // (most general) open level of the lattice, as the original bottom-up
  // unique-column-combination walk does.
  auto random_askable = [&]() -> NodeId {
    std::vector<NodeId> pool;
    int best_level = static_cast<int>(k) + 1;
    for (NodeId m = 1; m < lat.num_nodes(); ++m) {
      if (!Askable(lat, m)) continue;
      int level = std::popcount(m);
      if (level < best_level) {
        best_level = level;
        pool.clear();
      }
      if (level == best_level) pool.push_back(m);
    }
    if (pool.empty()) return 0;
    return pool[rng_.NextUint(pool.size())];
  };

  NodeId current = random_askable();
  if (current == 0) return;
  while (ctx.BudgetLeft()) {
    bool valid;
    if (lat.validity(current) == Validity::kUnknown) {
      auto res = ctx.Ask(current);
      if (!res) return;
      valid = res->valid;
      current = res->asked;
    } else {
      valid = lat.validity(current) == Validity::kValid;
    }

    // Pivot: valid → try a more general neighbour (seek the maximal valid
    // border); invalid → try a more specific neighbour.
    std::vector<NodeId> candidates;
    if (valid) {
      NodeId bits = current;
      while (bits) {
        NodeId bit = bits & (~bits + 1);
        bits ^= bit;
        candidates.push_back(current ^ bit);
      }
    } else {
      for (size_t i = 0; i < k; ++i) {
        NodeId child = current | (NodeId{1} << i);
        if (child != current) candidates.push_back(child);
      }
    }
    std::vector<NodeId> moves;
    for (NodeId c : candidates) {
      if (Askable(lat, c)) moves.push_back(c);
    }
    if (moves.empty()) {
      current = random_askable();  // Hole jump.
      if (current == 0) return;
    } else {
      current = moves[rng_.NextUint(moves.size())];
    }
  }
}

// ---------------------------------------------------------------------------
// Dive (binary jump, steps D1–D6)
// ---------------------------------------------------------------------------

NodeId DiveSearch::Select(LatticeSearchContext&,
                          const std::vector<NodeId>& pool, size_t pos) {
  return pool[pos];
}

NodeId CoDiveSearch::Select(LatticeSearchContext& ctx,
                            const std::vector<NodeId>& pool, size_t pos) {
  const Lattice& lat = ctx.lattice();
  size_t w = ctx.tuning().codive_window;
  size_t lo = pos > w ? pos - w : 0;
  size_t hi = std::min(pool.size() - 1, pos + w);
  NodeId best = pool[pos];
  double best_score = -1.0;
  for (size_t i = lo; i <= hi; ++i) {
    // Affected count × correlation (Section 4.2.2), optionally scaled by
    // the cross-update rule-shape prior (§8 extension; 1.0 by default).
    double score = static_cast<double>(lat.affected_count(pool[i])) *
                   ctx.Correlation(pool[i]) * ctx.HistoryBoost(pool[i]);
    if (score > best_score) {
      best_score = score;
      best = pool[i];
    }
  }
  return best;
}

void DiveSearch::Run(LatticeSearchContext& ctx) {
  Lattice& lat = ctx.lattice();
  const size_t d = ctx.tuning().dive_depth;

  auto collect = [&](auto&& pred) {
    std::vector<NodeId> pool;
    for (NodeId m = 0; m < lat.num_nodes(); ++m) {
      if (Askable(lat, m) && pred(m)) pool.push_back(m);
    }
    return pool;
  };
  auto all_askable = [&] { return collect([](NodeId) { return true; }); };
  auto unlinked_to_verified = [&] {
    return collect([&](NodeId m) {
      for (NodeId v : ctx.verified()) {
        if (Linked(m, v)) return false;
      }
      return true;
    });
  };

  // D1: top is valid a priori (the session marks it); start from everything
  // still unknown.
  std::vector<NodeId> pool = all_askable();
  size_t depth = 0;

  while (ctx.BudgetLeft()) {
    // Drop nodes resolved by inference or emptied by applied queries.
    std::erase_if(pool, [&](NodeId m) { return !Askable(lat, m); });
    if (pool.empty()) {
      pool = unlinked_to_verified();  // D6.
      if (pool.empty()) pool = all_askable();
      if (pool.empty()) return;
      depth = 0;
    }

    // D2: sort by affected count ascending.
    std::sort(pool.begin(), pool.end(), [&](NodeId a, NodeId b) {
      size_t ca = lat.affected_count(a);
      size_t cb = lat.affected_count(b);
      return ca != cb ? ca < cb : a < b;
    });

    // D3: binary jump — aim for the affected count closest to the paper's
    // log-scale target ceil(log2(lo+hi)); the most general nodes inflate
    // the plain median (Section 4.2.1). Deliberately small targets land on
    // specific, likely-valid nodes whose closed-set representatives then
    // prune aggressively either way.
    double lo =
        std::max(1.0, static_cast<double>(lat.affected_count(pool.front())));
    double hi =
        std::max(1.0, static_cast<double>(lat.affected_count(pool.back())));
    double target = 0;
    switch (ctx.tuning().jump_target) {
      case SearchTuning::JumpTarget::kLogScale:
        target = std::ceil(std::log2(std::max(lo + hi, 2.0)));
        break;
      case SearchTuning::JumpTarget::kMedian:
        target = std::ceil((lo + hi) / 2.0);
        break;
      case SearchTuning::JumpTarget::kGeometric:
        target = std::ceil(std::sqrt(lo * hi));
        break;
    }
    size_t pos = 0;
    double best_gap = std::abs(static_cast<double>(lat.affected_count(pool[0])) -
                               target);
    for (size_t i = 1; i < pool.size(); ++i) {
      double gap =
          std::abs(static_cast<double>(lat.affected_count(pool[i])) - target);
      if (gap < best_gap) {
        best_gap = gap;
        pos = i;
      }
    }

    NodeId choice = Select(ctx, pool, pos);
    auto res = ctx.Ask(choice);
    if (!res) return;
    NodeId asked = res->asked;

    if (res->valid) {
      // D4: the query was applied; continue among strictly more general
      // nodes (its proper subsets) — they may still be valid with more
      // coverage.
      depth = 0;
      std::vector<NodeId> subsets;
      for (NodeId s = asked;; s = (s - 1) & asked) {
        if (s != asked) subsets.push_back(s);
        if (s == 0) break;
      }
      pool.clear();
      for (NodeId s : subsets) {
        if (Askable(lat, s)) pool.push_back(s);
      }
    } else {
      // D5: wrong direction; search among strictly more specific nodes.
      ++depth;
      if (depth >= d) {
        pool = unlinked_to_verified();  // D6.
        depth = 0;
      } else {
        std::vector<NodeId> supersets;
        NodeId full = lat.top();
        for (NodeId s = asked;; s = (s + 1) | asked) {
          if (s != asked) supersets.push_back(s);
          if (s == full) break;
        }
        pool.clear();
        for (NodeId s : supersets) {
          if (Askable(lat, s)) pool.push_back(s);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// OffLine greedy
// ---------------------------------------------------------------------------

void OfflineSearch::Run(LatticeSearchContext& ctx) {
  Lattice& lat = ctx.lattice();
  while (ctx.BudgetLeft()) {
    // Greedy max-benefit scan over every open node: the counts are
    // lookups, and TrueValid probes (and builds the rows of) only the
    // improving candidates.
    NodeId best = 0;
    size_t best_count = 0;
    for (NodeId m = 0; m < lat.num_nodes(); ++m) {
      if (!Askable(lat, m)) continue;
      size_t c = lat.affected_count(m);
      if (c > best_count && ctx.TrueValid(m)) {
        best = m;
        best_count = c;
      }
    }
    if (best_count == 0) return;  // Nothing valid left worth applying.
    ctx.Ask(best);
  }
}

}  // namespace falcon
