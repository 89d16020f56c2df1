#include "core/lattice.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "relational/posting_index.h"

namespace falcon {

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
  lat.validity_.assign(n_nodes, Validity::kUnknown);

  // Bottom node + predicate bitmaps: the only set algebra a lazy build
  // pays. The counts come with the first Count, node bitmaps on demand.
  lat.InitBottomAndPreds(table);
  lat.resident_ = {0};

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
  table_ = &table;
  const size_t k = cols_.size();
  preds_.owned.assign(k, RowSet());
  preds_.bits.assign(k, nullptr);
  preds_.writes.assign(k, 0);
  if (index_ == nullptr) {
    // The reference path: every bitmap is a scan the lattice owns.
    affected_[0] = table.ScanEquals(repair_.col, target_value_).Complement();
    for (size_t i = 0; i < k; ++i) {
      preds_.owned[i] = table.ScanEquals(cols_[i], bindings_[i]);
      preds_.bits[i] = &preds_.owned[i];
    }
    return;
  }
  // Bottom node: rows whose target value differs from a' (rows any
  // candidate query could change) — the complement of the target value's
  // posting, so a cached posting makes this scan-free. ApplyNode
  // maintains it, so it is always owned.
  const Posting& target = index_->Postings(repair_.col, target_value_);
  if (target.dense()) {
    affected_[0] = target.bits().Complement();
  } else {
    RowSet bottom(num_table_rows_, /*fill=*/true);
    for (uint32_t r : target.ids()) bottom.Clear(r);
    affected_[0] = std::move(bottom);
  }
  // Predicates: a dense posting of another column is read in place; an
  // array posting, or any posting of the repaired column (ApplyNode
  // maintains those predicates), becomes a bitmap the lattice owns.
  for (size_t i = 0; i < k; ++i) {
    const Posting& p = index_->Postings(cols_[i], bindings_[i]);
    if (p.dense() && cols_[i] != repair_.col) {
      preds_.bits[i] = &p.bits();
      preds_.writes[i] = table.column_writes(cols_[i]);
    } else {
      preds_.owned[i] = p.ToRowSet(num_table_rows_);
      preds_.bits[i] = &preds_.owned[i];
    }
  }
}

void Lattice::CheckBorrowed() const {
  for (size_t i = 0; i < cols_.size(); ++i) {
    FALCON_DCHECK(!preds_.borrowed(i) ||
                  table_->column_writes(cols_[i]) == preds_.writes[i]);
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
  counts_.resize(n_nodes);
  resident_.resize(n_nodes);
  for (NodeId m = 0; m < n_nodes; ++m) {
    counts_[m] = affected_[m].Count();
    resident_[m] = m;
  }
}

void Lattice::KernelCounts(const RowSet& base,
                           const std::vector<uint32_t>* words,
                           size_t* out) const {
  CheckBorrowed();
  std::array<const uint64_t*, kMaxLatticeAttrs> preds;
  for (size_t i = 0; i < cols_.size(); ++i) preds[i] = preds_[i].word_data();
  simd::LatticeCounts(base.word_data(), preds.data(), cols_.size(),
                      words != nullptr ? words->data() : nullptr,
                      words != nullptr ? words->size() : base.num_words(),
                      out);
}

const RowSet& Lattice::AffectedRows(NodeId n) const {
  if (materialized(n)) return affected_[n];
  CheckBorrowed();
  // Start from the resident subset of n with the most attributes (the
  // bottom at worst) and AND in the predicates it lacks: n's own bitmap is
  // the only one built.
  NodeId from = 0;
  for (NodeId r : resident_) {
    if ((r & n) == r && std::popcount(r) > std::popcount(from)) from = r;
  }
  NodeId rest = n & ~from;
  RowSet& rows = affected_[n];
  rows.AssignAnd(affected_[from],
                 preds_[static_cast<size_t>(std::countr_zero(rest))]);
  for (rest &= rest - 1; rest != 0; rest &= rest - 1) {
    rows.And(preds_[static_cast<size_t>(std::countr_zero(rest))]);
  }
  FALCON_DCHECK(counts_.empty() || rows.Count() == counts_[n]);
  resident_.push_back(n);
  return rows;
}

size_t Lattice::Count(NodeId n) const {
  if (counts_.empty()) {
    counts_.assign(num_nodes(), 0);
    KernelCounts(affected_[0], nullptr, counts_.data());
  }
  return counts_[n];
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

RowSet Lattice::ApplyNode(NodeId n, Table& table, Status* fault) {
  CheckBorrowed();
  // A copy: maintenance below clears the node's own set, and the caller
  // gets the changed rows back.
  RowSet changed = AffectedRows(n);
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
    // Torn apply: leave the lattice untouched — the session aborts and
    // recovery rolls the table back from journal before-images.
    if (stopped) return changed;
  } else {
    changed.ForEach([&](size_t r) {
      table.set_cell(r, repair_.col, target_value_);
    });
  }

  // The words holding a repaired row, ascending. Every bit maintenance
  // could clear lies in these words, so it walks only them instead of the
  // whole universe.
  std::vector<uint32_t> touched;
  for (size_t w = 0; w < changed.num_words(); ++w) {
    if (changed.word(w) != 0) touched.push_back(static_cast<uint32_t>(w));
  }

  // Incremental maintenance (Section 5.1.2): the repaired rows leave every
  // node's affected set, so node m loses |changed ∧ ∧_{i∈m} pred(i)| rows —
  // changed ⊆ bottom, so that is exactly the overlap of Q(T) with m's set.
  // The kernel counts it for all 2^k nodes over the touched words. This
  // one subtraction covers the paper's three cases: a node containing n
  // (Case 1) loses its whole count, a node contained in n (Case 2) loses
  // |Q(T)|, an incomparable node (Case 3) loses the overlap. The predicates
  // must still be the pre-write ones: the repaired column's predicate
  // changes on exactly the changed rows.
  std::vector<size_t> delta;
  if (lazy_ && !counts_.empty()) {
    delta.assign(num_nodes(), 0);
    KernelCounts(changed, &touched, delta.data());
    for (NodeId m = 0; m < num_nodes(); ++m) counts_[m] -= delta[m];
  }
  // Resident bitmaps lose the same rows: one AND-NOT over the touched
  // words, clearing exactly the bits the delta counted. The eager
  // reference path counts by these popcounts instead.
  for (NodeId m : resident_) {
    size_t cleared = affected_[m].AndNotCountAt(changed, touched);
    if (!lazy_) {
      counts_[m] -= cleared;
    } else {
      FALCON_DCHECK(delta.empty() || cleared == delta[m]);
    }
  }

  // Maintain the predicate bitmaps for attributes over the repaired
  // column: changed rows now hold a', so they leave any other binding's
  // predicate and join a''s. This keeps later counts and every bitmap
  // built after the write exact.
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (cols_[i] != repair_.col) continue;
    FALCON_DCHECK(!preds_.borrowed(i));
    if (bindings_[i] == target_value_) {
      preds_.owned[i].Or(changed);
    } else {
      preds_.owned[i].AndNotCountAt(changed, touched);
    }
  }

  // The paper's per-case tallies depend only on the masks. With pc = |n|'s
  // attributes: supersets\{n} = 2^(k-pc)-1, subsets\{n} = 2^pc-1, rest
  // incomparable.
  {
    size_t k = cols_.size();
    size_t pc = static_cast<size_t>(std::popcount(n));
    size_t supersets = size_t{1} << (k - pc);
    size_t subsets = size_t{1} << pc;
    maintenance_stats_.case1_contained += supersets - 1;
    maintenance_stats_.case2_containing += subsets - 1;
    maintenance_stats_.case3_disjoint += num_nodes() - supersets - subsets + 1;
  }
  return changed;
}

void Lattice::RecomputeAffected(const Table& table) {
  if (lazy_) {
    // Lazy rebuild: drop every node bitmap but the bottom and the counts,
    // and refetch the bottom and predicate bitmaps from the (possibly
    // externally modified) table; later accesses recount and rebuild
    // against the new contents.
    for (NodeId m : resident_) affected_[m] = RowSet();
    resident_ = {0};
    counts_.clear();
    InitBottomAndPreds(table);
  } else {
    InitBottomAndPreds(table);
    EagerChain();
    FinishEagerInit();
  }
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

NodeId Lattice::Representative(NodeId n) const {
  size_t count = Count(n);
  NodeId rep = n;
  for (size_t i = 0; i < cols_.size(); ++i) {
    NodeId child = n | (NodeId{1} << i);
    if (child != n && Count(child) == count) rep = rep | child;
  }
  return rep;
}

size_t Lattice::NumClosedSets() const {
  std::vector<uint8_t> seen(num_nodes(), 0);
  size_t sets = 0;
  for (NodeId m = 0; m < num_nodes(); ++m) {
    NodeId rep = Representative(m);
    if (!seen[rep]) {
      seen[rep] = 1;
      ++sets;
    }
  }
  return sets;
}

}  // namespace falcon
