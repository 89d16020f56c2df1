// The FALCON query lattice (paper Section 3): the search space of candidate
// SQLU generalizations of one user repair Δ: t[A] ← a'.
//
// Nodes are attribute subsets X of the (top-k correlated) lattice columns;
// node X is the query  UPDATE T SET A = a' WHERE ∧_{B∈X} B = t[B].
// Containment Q ≤ Q' ⇔ attr(Q') ⊆ attr(Q); the bottom node ∅ is the most
// general query, the top node (all attributes) the most specific.
//
// The lattice maintains, per node, the affected row set — rows matching the
// WHERE clause whose A value differs from a' — and tracks validity state
// with the paper's inference rules.
//
// Materialization is LAZY by default: Build only computes the bottom node
// and the per-attribute predicate bitmaps; a node's affected set / count is
// computed on first access via the ancestor-chain recurrence
//
//     affected(m) = affected(m without its lowest attribute) ∧ pred(lowest)
//
// which recursively materializes only the ancestor chain actually needed,
// then caches it for the lattice's lifetime. Counts use the fused
// RowSet::AndCount kernel (no intermediate bitmap), and EnsureCounts batches
// a search frontier through ThreadPool::ParallelFor. Applied queries
// incrementally maintain whatever is cached (maintenance Cases 1–3 of
// Section 5.1.2, restricted to the materialized subset); closed rule sets
// (Section 5.2) resolve a node's representative through the
// predicate-closure rule without materializing anything beyond the node
// itself.
#ifndef FALCON_CORE_LATTICE_H_
#define FALCON_CORE_LATTICE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hybrid_row_set.h"
#include "common/row_set.h"
#include "common/status.h"
#include "relational/sqlu.h"
#include "relational/table.h"

namespace falcon {

/// A lattice node: bit i set ⇔ lattice attribute i is in the WHERE clause.
using NodeId = uint32_t;

/// Validity state of a node's query.
enum class Validity : uint8_t { kUnknown, kValid, kInvalid };

class PostingIndex;

/// Hard ceiling on lattice attributes: node ids are 32-bit masks and the
/// per-node state vectors are sized 2^k, so builds beyond this are refused
/// outright (partial materialization should have capped k long before).
inline constexpr size_t kMaxLatticeAttrs = 20;

/// Lattice construction options.
struct LatticeOptions {
  /// Hard cap on lattice attributes (2^max_attrs nodes). Partial
  /// materialization (Section 5.1.1) keeps lattices this small.
  size_t max_attrs = 12;
  /// Appendix B (master data) variant: the updated attribute itself may not
  /// appear in WHERE clauses.
  bool exclude_target_attr = false;
  /// Benchmark toggle: initialize each node's affected set by a full
  /// conjunction scan instead of the bottom-up view rewriting. Implies
  /// eager materialization.
  bool naive_init = false;
  /// Optional posting cache for predicate bitmaps (non-owning). Ignored by
  /// naive_init. When the index runs in delta-maintenance mode, ApplyNode
  /// patches its bitmaps in place (see maintain_index); otherwise the
  /// caller must invalidate updated columns.
  PostingIndex* index = nullptr;
  /// Keep the posting index exact across ApplyNode by reporting each
  /// query's writes as deltas (only meaningful when the index is in
  /// delta-maintenance mode). Off reverts to caller-side invalidation.
  bool maintain_index = true;
  /// Materialize node affected-sets on first access instead of at Build
  /// (the default). Off forces the legacy eager build — every node's
  /// bitmap and count computed up front — kept for A/B benchmarks and the
  /// lazy≡eager equivalence tests. Either way accessors return identical
  /// bits; only the work schedule differs.
  bool lazy = true;
  /// Store predicate bitmaps and materialized node sets in the
  /// density-adaptive compressed representation: each bitmap picks dense
  /// words or Roaring-style containers by its measured density
  /// (HybridRowSet::Compact), deterministically in its cardinality alone.
  /// Bit-identical to dense mode — only the storage (and bytes) differ.
  /// Ignored by naive_init (the strawman stays dense).
  bool compressed = false;
};

/// One user repair: set cell (row, col) to `new_value`.
struct Repair {
  uint32_t row = 0;
  size_t col = 0;
  std::string new_value;
};

class Lattice {
 public:
  /// Builds the lattice for `repair` over `table`. `candidate_cols` are the
  /// columns eligible for WHERE predicates, in rank order (partial
  /// materialization feeds the top-k correlated columns); the repaired
  /// column is prepended automatically unless options.exclude_target_attr.
  /// Predicate constants bind to the repaired tuple's *current* values.
  static StatusOr<Lattice> Build(const Table& table, const Repair& repair,
                                 std::vector<size_t> candidate_cols,
                                 const LatticeOptions& options = {});

  // --- Shape ---------------------------------------------------------------

  size_t num_attrs() const { return cols_.size(); }
  size_t num_nodes() const { return NodeId{1} << cols_.size(); }
  NodeId bottom() const { return 0; }
  NodeId top() const { return static_cast<NodeId>(num_nodes() - 1); }

  /// Table columns backing each lattice attribute bit.
  const std::vector<size_t>& lattice_cols() const { return cols_; }

  /// Name of lattice attribute `i`.
  const std::string& attr_name(size_t i) const { return attr_names_[i]; }

  /// Decoded predicate constant bound to lattice attribute `i`.
  const std::string& binding_text(size_t i) const { return binding_texts_[i]; }

  /// Interned predicate constant bound to lattice attribute `i`.
  ValueId binding(size_t i) const { return bindings_[i]; }

  /// Posting cache supplied at Build time (may be null).
  PostingIndex* index() const { return index_; }

  /// The repair this lattice generalizes.
  const Repair& repair() const { return repair_; }
  size_t target_col() const { return repair_.col; }
  ValueId target_value() const { return target_value_; }

  // --- Affected sets ---------------------------------------------------------

  /// Node `n`'s affected rows, materializing the minimal ancestor chain on
  /// first access (lazy mode) and caching the result. The reference stays
  /// valid for the lattice's lifetime; bits are identical to an eager
  /// build's, in whichever representation the density policy chose.
  const HybridRowSet& AffectedRows(NodeId n) const;

  /// |AffectedRows(n)|, computed on first access via the fused AndCount
  /// kernel against the parent's bitmap — the node's own bitmap is *not*
  /// materialized when only the cardinality is needed.
  size_t Count(NodeId n) const;

  /// Batch form of Count for a search frontier: materializes the needed
  /// ancestor bitmaps level-by-level and computes the fused counts in
  /// parallel shards (ThreadPool::ParallelFor, disjoint slots —
  /// deterministic). No-op in eager mode or for already-counted nodes.
  void EnsureCounts(const std::vector<NodeId>& nodes) const;

  /// Legacy accessor names (aliases of AffectedRows/Count).
  const HybridRowSet& affected(NodeId n) const { return AffectedRows(n); }
  size_t affected_count(NodeId n) const { return Count(n); }

  /// True once node `n`'s bitmap is resident.
  bool materialized(NodeId n) const {
    return affected_[n].universe_size() == num_table_rows_;
  }

  /// Laziness counters for SessionMetrics / the benches.
  struct LazyStats {
    size_t nodes_materialized = 0;  ///< Node bitmaps resident.
    size_t fused_count_calls = 0;   ///< Counts served by AndCount alone.
  };
  LazyStats lazy_stats() const {
    return {nodes_materialized_, fused_count_calls_};
  }
  bool lazy() const { return lazy_; }

  // --- Validity and inference ------------------------------------------------

  Validity validity(NodeId n) const { return validity_[n]; }

  /// Marks `n` valid and infers validity for every more-specific node
  /// (supersets of n's attribute set). Inference never overwrites a state
  /// already known.
  void MarkValid(NodeId n);

  /// Marks `n` invalid and infers invalidity for every more-general node
  /// (subsets of n's attribute set).
  void MarkInvalid(NodeId n);

  /// Nodes whose validity is still unknown.
  std::vector<NodeId> UnknownNodes() const;

  // --- Application and maintenance -------------------------------------------

  /// Per-case counters for the incremental maintenance of Section 5.1.2.
  struct MaintenanceStats {
    size_t case1_contained = 0;  ///< Q' ≤ Q: set drops to ∅ (constant time).
    size_t case2_containing = 0; ///< Q ≤ Q'': count -= |Q(T)| (one AND-NOT).
    size_t case3_disjoint = 0;   ///< overlap counted then removed.
  };

  /// Applies node `n`'s query to `table` (which must be the table the
  /// lattice was built over): writes the target value into every affected
  /// row and incrementally updates the *cached* affected sets and counts
  /// (Cases 1–3 of Section 5.1.2, each with its cheap path; in lazy mode
  /// unmaterialized nodes pay nothing and later materialize against the
  /// equally-maintained predicate bitmaps). Returns the changed rows.
  ///
  /// When `fault` is non-null the per-row writes check the `apply.write`
  /// fault-injection site: on an injected fault the apply stops mid-write
  /// (a torn apply), `*fault` carries the error, and lattice maintenance is
  /// skipped — the session's journal before-images make the partial write
  /// recoverable. Callers that pass nullptr (tests, benches, the REPL) pay
  /// nothing and never fault.
  RowSet ApplyNode(NodeId n, Table& table, Status* fault = nullptr);

  /// Cumulative maintenance case counts across ApplyNode calls.
  const MaintenanceStats& maintenance_stats() const {
    return maintenance_stats_;
  }

  /// Benchmark/naive path: recomputes every affected set from the current
  /// table contents (what a from-scratch rebuild would do). In lazy mode
  /// this drops all cached node state and refetches the bottom/predicate
  /// bitmaps; accesses then re-materialize against the new table contents.
  void RecomputeAffected(const Table& table);

  // --- Query materialization ---------------------------------------------------

  /// Renders node `n` as a SQLU statement.
  SqluQuery NodeQuery(NodeId n) const;

  /// Human-readable attribute-set label, e.g. "{Molecule, Laboratory}".
  std::string NodeLabel(NodeId n) const;

  // --- Closed rule sets (Section 5.2) -----------------------------------------

  /// Representative rule of n's closed rule set: the set member with the
  /// most WHERE predicates. Computed by the predicate-closure rule —
  /// rep(n) = n ∪ {i ∉ n : affected(n) ⊆ pred(i)} — which touches only n's
  /// own bitmap, so it never forces materialization beyond n. (Equivalent
  /// to grouping nodes by identical affected sets: equal-set classes are
  /// closed under attribute union, making the closure their unique maximal
  /// member.) Memoized per node until the next applied query.
  NodeId Representative(NodeId n);

  /// Number of distinct closed rule sets at the current counts (stats
  /// only; materializes every node in lazy mode).
  size_t NumClosedSets();

 private:
  /// Sentinel in counts_: cardinality not yet computed.
  static constexpr size_t kNoCount = static_cast<size_t>(-1);

  Lattice() = default;

  /// Fills affected_[bottom] and the per-attribute predicate bitmaps
  /// preds_ (from the posting index when present, else column scans).
  void InitBottomAndPreds(const Table& table);
  /// Eager view rewriting: materializes every node bottom-up (one AND per
  /// node off the lowest-set-bit parent).
  void EagerChain();
  void InitAffectedNaive(const Table& table);
  /// Marks every node materialized + counted after an eager init.
  void FinishEagerInit();
  /// Records that node m now holds cached state (bitmap and/or count).
  void MarkCached(NodeId m) const;
  /// Materializes node m's bitmap via the ancestor-chain recurrence. Also
  /// fills counts_[m] (the bits are resident, so the count is free) and — in
  /// compressed mode — compacts the bitmap by its density. Done in BOTH
  /// modes so the lazy counters, and with them SessionMetrics, stay
  /// bit-identical across representations.
  const HybridRowSet& MaterializeBitmap(NodeId m) const;
  void MaterializeAll() const;
  void EnsureClosedSets();

  std::vector<size_t> cols_;          // Lattice attribute -> table column.
  std::vector<ValueId> bindings_;     // Predicate constant per attribute.
  std::string table_name_;
  std::string set_attr_name_;
  std::vector<std::string> attr_names_;    // Name per lattice attribute.
  std::vector<std::string> binding_texts_; // Decoded predicate constants.
  Repair repair_;
  ValueId target_value_ = kNullValueId;
  size_t num_table_rows_ = 0;
  PostingIndex* index_ = nullptr;
  bool maintain_index_ = true;
  bool lazy_ = true;
  bool compressed_ = false;

  /// Per-attribute predicate bitmaps (value copies — posting references
  /// can be invalidated/evicted under the lattice). ApplyNode maintains
  /// them exactly alongside the node sets, which is what keeps the chain
  /// recurrence (and the closure rule) correct for nodes materialized
  /// *after* repairs were applied. In compressed mode each bitmap is
  /// compacted by density; dense mode forces dense storage either way.
  std::vector<HybridRowSet> preds_;

  // Lazily-populated per-node caches. Mutable because materialization is
  // memoization: const accessors (oracles, tests) observe identical values
  // whether or not the bits were resident beforehand. An empty set
  // (universe 0 ≠ num_table_rows_) marks "not materialized"; kNoCount
  // marks "not counted". cached_nodes_ lists every node holding any state
  // so ApplyNode maintenance iterates only those.
  mutable std::vector<HybridRowSet> affected_;
  mutable std::vector<size_t> counts_;
  mutable std::vector<uint8_t> cached_flag_;
  mutable std::vector<NodeId> cached_nodes_;
  mutable size_t nodes_materialized_ = 0;
  mutable size_t fused_count_calls_ = 0;

  std::vector<Validity> validity_;
  MaintenanceStats maintenance_stats_;

  /// Per-node Representative memo; cleared on every applied query.
  std::unordered_map<NodeId, NodeId> rep_cache_;

  // Closed-set grouping state (NumClosedSets only).
  bool closed_sets_fresh_ = false;
  std::vector<uint32_t> closed_group_;
  std::vector<NodeId> group_representative_;
};

}  // namespace falcon

#endif  // FALCON_CORE_LATTICE_H_
