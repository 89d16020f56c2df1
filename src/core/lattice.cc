#include "core/lattice.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "relational/posting_index.h"

namespace falcon {
namespace {

/// Batch-scheduler cost model (see DESIGN.md "SIMD dispatch & batch cost
/// model"): a ParallelFor handoff costs on the order of 10µs of fixed
/// latency while the fused word kernels move roughly a word per
/// nanosecond, so a worker shard needs at least this many estimated
/// 64-bit words of AND work before forking beats the plain serial loop.
constexpr size_t kMinWordsPerShard = size_t{1} << 14;

}  // namespace

StatusOr<Lattice> Lattice::Build(const Table& table, const Repair& repair,
                                 std::vector<size_t> candidate_cols,
                                 const LatticeOptions& options) {
  if (repair.row >= table.num_rows() || repair.col >= table.num_cols()) {
    return Status::InvalidArgument("repair cell out of range");
  }
  Lattice lat;
  lat.repair_ = repair;
  lat.num_table_rows_ = table.num_rows();

  // Assemble lattice columns: the ranked candidates in order, then the
  // repaired attribute itself last (unless excluded, Appendix B). Putting
  // the candidates first means one-hop traversals explore the correlated
  // attributes in rank order.
  size_t budget_cols = options.max_attrs;
  if (!options.exclude_target_attr && budget_cols > 0) --budget_cols;
  for (size_t c : candidate_cols) {
    if (c == repair.col) continue;
    if (c >= table.num_cols()) {
      return Status::InvalidArgument("candidate column out of range");
    }
    if (std::find(lat.cols_.begin(), lat.cols_.end(), c) != lat.cols_.end()) {
      continue;
    }
    if (lat.cols_.size() >= budget_cols) break;
    lat.cols_.push_back(c);
  }
  // Rank decides *which* attributes enter the lattice (partial
  // materialization); schema position decides their order, as in the
  // paper's implementation — only CoDive consults correlation scores while
  // traversing. The repaired attribute goes last.
  std::sort(lat.cols_.begin(), lat.cols_.end());
  if (!options.exclude_target_attr) {
    lat.cols_.push_back(repair.col);
  }
  if (lat.cols_.empty()) {
    return Status::InvalidArgument("lattice needs at least one attribute");
  }
  if (lat.cols_.size() > kMaxLatticeAttrs) {
    return Status::InvalidArgument(
        "lattice too large (" + std::to_string(lat.cols_.size()) +
        " attributes, kMaxLatticeAttrs = " + std::to_string(kMaxLatticeAttrs) +
        ")");
  }

  // Bind predicate constants to the repaired tuple's current values
  // (closed-world assumption, Section 2.2).
  lat.table_name_ = table.name();
  lat.set_attr_name_ = table.schema().attribute(repair.col);
  for (size_t c : lat.cols_) {
    ValueId v = table.cell(repair.row, c);
    lat.bindings_.push_back(v);
    lat.attr_names_.push_back(table.schema().attribute(c));
    lat.binding_texts_.emplace_back(table.pool()->Get(v));
  }
  // Interning through the shared pool is safe: it is append-only and does
  // not mutate the table contents.
  lat.target_value_ = table.pool()->Intern(repair.new_value);

  size_t n_nodes = lat.num_nodes();
  lat.index_ = options.naive_init ? nullptr : options.index;
  lat.maintain_index_ = options.maintain_index;
  lat.lazy_ = options.lazy && !options.naive_init;
  lat.affected_.resize(n_nodes);
  lat.counts_.assign(n_nodes, kNoCount);
  lat.cached_flag_.assign(n_nodes, 0);
  lat.validity_.assign(n_nodes, Validity::kUnknown);

  // Bottom node + predicate bitmaps: the only set algebra a lazy build
  // pays. Everything above the bottom materializes on demand.
  lat.InitBottomAndPreds(table);
  lat.counts_[0] = lat.affected_[0].Count();
  lat.MarkCached(0);
  lat.nodes_materialized_ = 1;

  if (options.naive_init) {
    lat.InitAffectedNaive(table);
    lat.FinishEagerInit();
  } else if (!lat.lazy_) {
    lat.EagerChain();
    lat.FinishEagerInit();
  }
  return lat;
}

void Lattice::InitBottomAndPreds(const Table& table) {
  // Posting bitmaps come from the posting cache when one was supplied,
  // copied out dense (the cache may store them compressed); stored by
  // value, since posting references can be invalidated or evicted while
  // the lattice is alive, and ApplyNode must maintain these bitmaps
  // independently anyway to keep the chain recurrence exact after repairs.
  auto posting = [&](size_t col, ValueId v) {
    return index_ != nullptr ? index_->Postings(col, v).ToDense()
                             : table.ScanEquals(col, v);
  };
  // Bottom node: rows whose target value differs from a' (rows any
  // candidate query could change) — the complement of the target value's
  // posting bitmap, so a cached posting makes this scan-free.
  affected_[0] = posting(repair_.col, target_value_).Complement();
  // Per-attribute predicate bitmaps for the bound predicate constants.
  preds_.clear();
  preds_.reserve(cols_.size());
  for (size_t i = 0; i < cols_.size(); ++i) {
    preds_.push_back(posting(cols_[i], bindings_[i]));
  }
}

void Lattice::EagerChain() {
  // View rewriting: each node's set is its (mask without lowest bit)
  // parent's set restricted by one more predicate — a single AND.
  for (NodeId m = 1; m < num_nodes(); ++m) {
    NodeId parent = m & (m - 1);
    int bit = std::countr_zero(m);
    affected_[m].AssignAnd(affected_[parent], preds_[static_cast<size_t>(bit)]);
  }
}

void Lattice::InitAffectedNaive(const Table& table) {
  // The "execute one SQLU query per node" strawman of Section 5.1.2.
  for (NodeId m = 0; m < num_nodes(); ++m) {
    RowSet rows(num_table_rows_);
    for (size_t r = 0; r < num_table_rows_; ++r) {
      if (table.cell(r, repair_.col) == target_value_) continue;
      bool match = true;
      for (size_t i = 0; i < cols_.size(); ++i) {
        if ((m >> i) & 1) {
          if (table.cell(r, cols_[i]) != bindings_[i]) {
            match = false;
            break;
          }
        }
      }
      if (match) rows.Set(r);
    }
    affected_[m] = std::move(rows);
  }
}

void Lattice::FinishEagerInit() {
  size_t n_nodes = num_nodes();
  for (NodeId m = 0; m < n_nodes; ++m) {
    counts_[m] = affected_[m].Count();
  }
  cached_flag_.assign(n_nodes, 1);
  cached_nodes_.resize(n_nodes);
  for (NodeId m = 0; m < n_nodes; ++m) cached_nodes_[m] = m;
  nodes_materialized_ = n_nodes;
}

void Lattice::MarkCached(NodeId m) const {
  if (!cached_flag_[m]) {
    cached_flag_[m] = 1;
    cached_nodes_.push_back(m);
  }
}

const RowSet& Lattice::MaterializeBitmap(NodeId m) const {
  if (materialized(m)) return affected_[m];
  int lo = std::countr_zero(m);
  NodeId parent = m & (m - 1);
  const RowSet& p = MaterializeBitmap(parent);
  // Fused materialization: one pass writes parent ∧ pred and counts it in
  // registers, so the count below is genuinely free.
  size_t count = affected_[m].AssignAnd(p, preds_[static_cast<size_t>(lo)]);
  if (counts_[m] == kNoCount) counts_[m] = count;
  MarkCached(m);
  ++nodes_materialized_;
  return affected_[m];
}

const RowSet& Lattice::AffectedRows(NodeId n) const {
  return MaterializeBitmap(n);
}

size_t Lattice::Count(NodeId n) const {
  if (counts_[n] != kNoCount) return counts_[n];
  size_t c;
  if (materialized(n)) {
    c = affected_[n].Count();
  } else {
    const RowSet& p = MaterializeBitmap(n & (n - 1));
    c = p.AndCount(preds_[static_cast<size_t>(std::countr_zero(n))]);
    ++fused_count_calls_;
  }
  counts_[n] = c;
  MarkCached(n);
  return c;
}

void Lattice::EnsureCounts(const std::vector<NodeId>& nodes) const {
  if (!lazy_) return;
  std::vector<NodeId> todo;
  todo.reserve(nodes.size());
  for (NodeId m : nodes) {
    if (counts_[m] == kNoCount) todo.push_back(m);
  }
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  if (todo.empty()) return;

  // Cost model. Forking a bucket through the pool pays a fixed handoff
  // while the per-node work is one AND/AndCount walking the parent's
  // words — every parent is dense, so each node charges the table's
  // logical word count — and a bucket forks only when every worker shard
  // clears kMinWordsPerShard. With no workers — or a bucket too small to
  // feed them — the plain serial loop is strictly faster; it also skips
  // the std::function indirection ParallelFor would pay even inline.
  const size_t workers = ThreadPool::Global().num_threads();
  const size_t logical_words = std::max<size_t>(1, (num_table_rows_ + 63) / 64);
  // ParallelFor grain for `bucket`, or 0 to run it serially.
  auto plan_grain = [&](const std::vector<NodeId>& bucket) -> size_t {
    if (workers == 0) return 0;
    if (bucket.size() * logical_words < 2 * kMinWordsPerShard) return 0;
    return std::max<size_t>(1, kMinWordsPerShard / logical_words);
  };

  // Phase 1: materialize every missing ancestor bitmap, level by level
  // (a node's parent sits one popcount level below, so each level only
  // reads bitmaps finished in earlier levels — shards write disjoint
  // affected_ slots, keeping the schedule deterministic).
  std::vector<NodeId> need;
  for (NodeId m : todo) {
    for (NodeId p = m & (m - 1); p != 0 && !materialized(p);
         p = p & (p - 1)) {
      need.push_back(p);
    }
  }
  std::sort(need.begin(), need.end());
  need.erase(std::unique(need.begin(), need.end()), need.end());

  // Children to fuse-count immediately after their parent materializes.
  // Phase 1 walks ~8 bytes per table row per materialized node; a frontier
  // that needs hundreds of ancestors therefore evicts the early parents
  // from cache long before a trailing fuse pass could read them back. The
  // serial chain never pays that: Count(m) fuses off a parent that was
  // materialized moments before. Grouping each todo node under its parent
  // and counting it inside the parent's Phase-1 visit restores that
  // temporal locality (each child has exactly one parent, so shards still
  // write disjoint counts_ slots). Nodes that are themselves ancestors get
  // their count from materialization, so they join no kids bucket.
  std::unordered_map<NodeId, std::vector<NodeId>> kids;
  for (NodeId m : todo) {
    if (counts_[m] != kNoCount) continue;
    if (std::binary_search(need.begin(), need.end(), m)) continue;
    kids[m & (m - 1)].push_back(m);
  }
  auto fuse_kids = [&](NodeId p) -> size_t {
    auto it = kids.find(p);
    if (it == kids.end()) return 0;
    for (NodeId c : it->second) {
      counts_[c] = affected_[p].AndCount(
          preds_[static_cast<size_t>(std::countr_zero(c))]);
    }
    return it->second.size();
  };

  if (!need.empty() && plan_grain(need) == 0) {
    // Serial schedule: ascending ids visit parents before children
    // (m & (m - 1) < m), and consecutive ids share short ancestor
    // suffixes, so each copy reads a parent written only a few nodes
    // earlier — still cache-resident, the same temporal locality the
    // on-demand chain gets for free. The level-major schedule below
    // would instead stream entire levels (megabytes of bitmaps at wide
    // levels) between a parent's write and its children's reads, paying
    // a cold copy per node; that order is only worth it when there are
    // workers to shard a level across.
    for (NodeId m : need) {
      size_t count = affected_[m].AssignAnd(
          affected_[m & (m - 1)],
          preds_[static_cast<size_t>(std::countr_zero(m))]);
      if (counts_[m] == kNoCount) counts_[m] = count;
      MarkCached(m);
      ++nodes_materialized_;
      // Fuse the node's pending children while its bitmap is hot.
      fused_count_calls_ += fuse_kids(m);
    }
  } else if (!need.empty()) {
    std::vector<std::vector<NodeId>> by_level(cols_.size() + 1);
    for (NodeId m : need) {
      by_level[static_cast<size_t>(std::popcount(m))].push_back(m);
    }
    for (const std::vector<NodeId>& level : by_level) {
      if (level.empty()) continue;
      auto body = [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          NodeId m = level[i];
          // Mirror MaterializeBitmap: fused materialize-and-count into
          // disjoint slots — deterministic.
          size_t count = affected_[m].AssignAnd(
              affected_[m & (m - 1)],
              preds_[static_cast<size_t>(std::countr_zero(m))]);
          if (counts_[m] == kNoCount) counts_[m] = count;
          // Fuse the node's pending children while its bitmap is hot.
          fuse_kids(m);
        }
      };
      size_t grain = plan_grain(level);
      if (grain == 0) {
        body(0, level.size());
      } else {
        ThreadPool::Global().ParallelFor(level.size(), grain, body);
      }
      for (NodeId m : level) {
        MarkCached(m);
        auto it = kids.find(m);
        if (it != kids.end()) fused_count_calls_ += it->second.size();
      }
      nodes_materialized_ += level.size();
    }
  }

  // Phase 2: the residual — todo nodes whose parent was already resident
  // when the call began (so no Phase-1 visit fused them). Each is a pure
  // fused AndCount off a resident parent, eligible for sharding under the
  // same cost model; shards write disjoint counts_ slots and only read
  // parent and predicate bitmaps, so results are bit-identical to the
  // serial path.
  std::vector<NodeId> fuse;
  fuse.reserve(todo.size());
  for (NodeId m : todo) {
    if (counts_[m] == kNoCount) fuse.push_back(m);
  }
  if (!fuse.empty()) {
    size_t fused = 0;
    for (NodeId m : fuse) {
      if (!materialized(m)) ++fused;
    }
    auto body = [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        NodeId m = fuse[i];
        if (materialized(m)) {
          counts_[m] = affected_[m].Count();
        } else {
          counts_[m] = affected_[m & (m - 1)].AndCount(
              preds_[static_cast<size_t>(std::countr_zero(m))]);
        }
      }
    };
    size_t grain = plan_grain(fuse);
    if (grain == 0) {
      body(0, fuse.size());
    } else {
      ThreadPool::Global().ParallelFor(fuse.size(), grain, body);
    }
    fused_count_calls_ += fused;
  }
  for (NodeId m : todo) MarkCached(m);
}

void Lattice::MaterializeAll() const {
  // Ascending node ids visit parents (m & (m-1) < m) before children, so
  // every materialization is a single AND off a resident bitmap.
  for (NodeId m = 1; m < num_nodes(); ++m) {
    if (!materialized(m)) MaterializeBitmap(m);
    if (counts_[m] == kNoCount) {
      counts_[m] = affected_[m].Count();
      MarkCached(m);
    }
  }
}

void Lattice::MarkValid(NodeId n) {
  validity_[n] = Validity::kValid;
  // Supersets of n are more specific, hence also valid.
  NodeId full = top();
  for (NodeId s = n;; s = (s + 1) | n) {
    if (validity_[s] == Validity::kUnknown) validity_[s] = Validity::kValid;
    if (s == full) break;
  }
}

void Lattice::MarkInvalid(NodeId n) {
  validity_[n] = Validity::kInvalid;
  // Subsets of n are more general, hence also invalid.
  for (NodeId s = n;; s = (s - 1) & n) {
    if (validity_[s] == Validity::kUnknown) validity_[s] = Validity::kInvalid;
    if (s == 0) break;
  }
}

std::vector<NodeId> Lattice::UnknownNodes() const {
  std::vector<NodeId> out;
  for (NodeId m = 0; m < num_nodes(); ++m) {
    if (validity_[m] == Validity::kUnknown) out.push_back(m);
  }
  return out;
}

RowSet Lattice::ApplyNode(NodeId n, Table& table, Status* fault) {
  // A copy: Case 1 below clears the node's own set, and the caller gets
  // the changed rows back.
  RowSet changed = AffectedRows(n);
  size_t changed_count = Count(n);
  // Delta-maintain the posting cache while the old values are still in the
  // table: each written row leaves its old value's bitmap and joins the
  // target value's. The cache then survives the write with no rescans.
  if (index_ != nullptr && maintain_index_ && index_->delta_maintenance()) {
    index_->ApplyDelta(
        repair_.col, changed,
        [&](size_t r) { return table.cell(r, repair_.col); }, target_value_);
  }
  if (fault != nullptr && FaultInjector::Global().active()) {
    bool stopped = false;
    changed.ForEach([&](size_t r) {
      if (stopped) return;
      Status st = FaultInjector::Global().Hit("apply.write");
      if (!st.ok()) {
        *fault = std::move(st);
        stopped = true;
        return;
      }
      table.set_cell(r, repair_.col, target_value_);
    });
    // Torn apply: leave the affected sets untouched — the session aborts
    // and recovery rolls the table back from journal before-images.
    if (stopped) return changed;
  } else {
    changed.ForEach([&](size_t r) {
      table.set_cell(r, repair_.col, target_value_);
    });
  }

  // The words holding a repaired row, ascending. Every bit the AND-NOTs
  // below could clear lies in these words, so maintenance walks only them
  // instead of the whole universe.
  std::vector<uint32_t> touched;
  for (size_t w = 0; w < changed.num_words(); ++w) {
    if (changed.word(w) != 0) touched.push_back(static_cast<uint32_t>(w));
  }

  // Maintain the predicate bitmaps for attributes over the repaired
  // column: changed rows now hold a', so they leave any other binding's
  // predicate and join a''s. This is what keeps the chain recurrence —
  // and with it every *future* lazy materialization — exact after the
  // write (AND distributes over the AndNot below).
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (cols_[i] != repair_.col) continue;
    if (bindings_[i] == target_value_) {
      preds_[i].Or(changed);
    } else {
      preds_[i].AndNotCountAt(changed, touched);
    }
  }

  // Incremental maintenance (Section 5.1.2): repaired rows leave every
  // node's affected set, but the containment relation to Q gives each node
  // a cheap path. Only nodes holding cached state pay anything; a node
  // with a cached count but no bitmap keeps the count exact in Cases 1–2
  // and falls back to lazy recomputation in Case 3 (the overlap is
  // unknowable without the bits).
  for (NodeId m : cached_nodes_) {
    bool has_bitmap = materialized(m);
    bool has_count = counts_[m] != kNoCount;
    if ((m & n) == n) {
      // Case 1 (and n itself) — Q' ≤ Q (supersets of n's attributes):
      // every tuple Q' could affect was just repaired, so Q'(T) ⊆ Q(T)
      // and its bits all lie in the touched words; clearing those drops
      // the node to ∅.
      if (has_bitmap) {
        [[maybe_unused]] size_t cleared =
            affected_[m].AndNotCountAt(changed, touched);
        FALCON_DCHECK(!has_count || cleared == counts_[m]);
      }
      counts_[m] = 0;
    } else if ((m & n) == m) {
      // Case 2 — Q ≤ Q'' (subsets): Q(T) ⊆ Q''(T), so the count drops by
      // exactly |Q(T)| — no popcount pass needed.
      if (has_bitmap) affected_[m].AndNotCountAt(changed, touched);
      if (has_count) counts_[m] -= changed_count;
    } else {
      // Case 3 — incomparable: deduct |Q'''(Q(T))|, i.e. the overlap with
      // the repaired area only, counted while it is cleared.
      if (has_bitmap) {
        size_t overlap = affected_[m].AndNotCountAt(changed, touched);
        if (has_count) counts_[m] -= overlap;
      } else if (has_count) {
        counts_[m] = kNoCount;  // Overlap unknown; recount lazily.
      }
    }
  }
  // The paper's per-case tallies depend only on the masks, not on which
  // nodes happen to be resident — closed forms keep the stats identical
  // between lazy and eager schedules. With pc = |n|'s attributes:
  // supersets\{n} = 2^(k-pc)-1, subsets\{n} = 2^pc-1, rest incomparable.
  {
    size_t k = cols_.size();
    size_t pc = static_cast<size_t>(std::popcount(n));
    size_t supersets = size_t{1} << (k - pc);
    size_t subsets = size_t{1} << pc;
    maintenance_stats_.case1_contained += supersets - 1;
    maintenance_stats_.case2_containing += subsets - 1;
    maintenance_stats_.case3_disjoint += num_nodes() - supersets - subsets + 1;
  }
  closed_sets_fresh_ = false;
  rep_cache_.clear();
  return changed;
}

void Lattice::RecomputeAffected(const Table& table) {
  size_t n_nodes = num_nodes();
  if (lazy_) {
    // Lazy rebuild: drop every cached node and refetch the bottom and
    // predicate bitmaps from the (possibly externally modified) table;
    // later accesses re-materialize against the new contents.
    for (NodeId m : cached_nodes_) {
      affected_[m] = RowSet();
      counts_[m] = kNoCount;
      cached_flag_[m] = 0;
    }
    cached_nodes_.clear();
    InitBottomAndPreds(table);
    counts_[0] = affected_[0].Count();
    MarkCached(0);
    nodes_materialized_ = 1;
  } else {
    InitBottomAndPreds(table);
    EagerChain();
    for (NodeId m = 0; m < n_nodes; ++m) {
      counts_[m] = affected_[m].Count();
    }
  }
  closed_sets_fresh_ = false;
  rep_cache_.clear();
}

SqluQuery Lattice::NodeQuery(NodeId n) const {
  SqluQuery q;
  q.table = table_name_;
  q.set_attr = set_attr_name_;
  q.set_value = repair_.new_value;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if ((n >> i) & 1) {
      q.where.push_back({attr_names_[i], binding_texts_[i]});
    }
  }
  q.Canonicalize();
  return q;
}

std::string Lattice::NodeLabel(NodeId n) const {
  std::string out = "{";
  bool first = true;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if ((n >> i) & 1) {
      if (!first) out += ", ";
      out += attr_names_[i];
      first = false;
    }
  }
  out += "}";
  return out;
}

void Lattice::EnsureClosedSets() {
  if (closed_sets_fresh_) return;
  MaterializeAll();
  size_t n_nodes = num_nodes();
  closed_group_.assign(n_nodes, 0);
  group_representative_.clear();

  // A closed rule set is an equivalence class of nodes with identical
  // affected sets (the closed-itemset "same tidset" semantics that the
  // paper's Example 10 illustrates: {DMQ, DM, DQ} all repair the same
  // tuples). The class is closed under attribute union, so the member with
  // the most predicates is the unique representative rule.
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
  for (NodeId m = 0; m < n_nodes; ++m) {
    // Hash on (count, bitmap) and resolve collisions by exact comparison
    // against each group's canonical member.
    uint64_t h = affected_[m].Hash() * 31 + counts_[m];
    std::vector<uint32_t>& groups = buckets[h];
    bool placed = false;
    for (uint32_t g : groups) {
      NodeId canon = group_representative_[g];
      if (affected_[m] == affected_[canon]) {
        closed_group_[m] = g;
        // Representative = member with the most predicates.
        NodeId& rep = group_representative_[g];
        if (std::popcount(m) > std::popcount(rep) ||
            (std::popcount(m) == std::popcount(rep) && m > rep)) {
          rep = m;
        }
        placed = true;
        break;
      }
    }
    if (!placed) {
      uint32_t g = static_cast<uint32_t>(group_representative_.size());
      group_representative_.push_back(m);
      groups.push_back(g);
      closed_group_[m] = g;
    }
  }
  closed_sets_fresh_ = true;
}

NodeId Lattice::Representative(NodeId n) {
  auto it = rep_cache_.find(n);
  if (it != rep_cache_.end()) return it->second;
  // Predicate-closure rule: attribute i outside n leaves the affected set
  // unchanged iff affected(n) ⊆ pred(i) (the chain recurrence ANDs pred(i)
  // in). The closure n ∪ {all such i} is therefore the unique maximal
  // member of n's equal-affected-set class — the representative — and
  // costs one subset test per absent attribute instead of grouping all
  // 2^k nodes. An empty affected set closes to the top node.
  const RowSet& rows = AffectedRows(n);
  NodeId rep = n;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if ((n >> i) & 1) continue;
    if (rows.IsSubsetOf(preds_[i])) rep |= NodeId{1} << i;
  }
  rep_cache_.emplace(n, rep);
  return rep;
}

size_t Lattice::NumClosedSets() {
  EnsureClosedSets();
  return group_representative_.size();
}

}  // namespace falcon
