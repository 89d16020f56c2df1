// The FALCON query lattice (paper Section 3): the search space of candidate
// SQLU generalizations of one user repair Δ: t[A] ← a'.
//
// Nodes are attribute subsets X of the (top-k correlated) lattice columns;
// node X is the query  UPDATE T SET A = a' WHERE ∧_{B∈X} B = t[B].
// Containment Q ≤ Q' ⇔ attr(Q') ⊆ attr(Q); the bottom node ∅ is the most
// general query, the top node (all attributes) the most specific.
//
// The lattice keeps, per node, the cardinality of its affected row set —
// rows matching the WHERE clause whose A value differs from a' — and
// tracks validity state with the paper's inference rules.
//
// Build computes only the bottom node's bitmap and the per-attribute
// predicate bitmaps; a predicate whose posting the index stores dense is
// read in place. The first Count runs one blocked kernel
// (simd::LatticeCounts) that counts all 2^k nodes at once,
//
//     |affected(m)| = popcount(bottom ∧ ∧_{i∈m} pred(i)),
//
// and from then on every count is a lookup. A node's bitmap is built
// (from its largest resident subset) only when a caller needs its rows:
// the oracle's TrueValid, ApplyValid's journal and ApplyNode. ApplyNode
// keeps the counts exact by running the same kernel over only the words a
// repair touched, with the changed rows as base, and subtracting the result
// from every count (the paper's maintenance Cases 1–3 of Section 5.1.2 are
// all this one subtraction); resident bitmaps get one AND-NOT over the same
// words. Closed rule sets (Section 5.2) read the counts: a node's
// representative adds every attribute whose child keeps the node's count.
//
// LatticeOptions::naive_init keeps the paper's strawman: every node's set
// is filled by a row loop over its conjunction and counted by popcount, all
// resident from the build on. With SessionOptions::naive_maintenance
// (RecomputeAffected after every applied rule) and no posting index it is
// the reference path the differential tests compare sessions against.
#ifndef FALCON_CORE_LATTICE_H_
#define FALCON_CORE_LATTICE_H_

#include <cstdint>
#include <string>
#include <vector>

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
static_assert(kMaxLatticeAttrs <= simd::kLatticeCountsMaxAttrs);

/// Lattice construction options.
struct LatticeOptions {
  /// Hard cap on lattice attributes (2^max_attrs nodes). Partial
  /// materialization (Section 5.1.1) keeps lattices this small.
  size_t max_attrs = 12;
  /// Appendix B (master data) variant: the updated attribute itself may not
  /// appear in WHERE clauses.
  bool exclude_target_attr = false;
  /// The strawman init of Section 5.1.2 (one query per node): fill every
  /// node's affected set by a row loop over its conjunction and count it
  /// by popcount, every bitmap resident. Ignores `index`.
  bool naive_init = false;
  /// Optional posting cache for predicate bitmaps (non-owning). Ignored by
  /// naive_init. A dense posting of a column other than the repaired one
  /// is read in place (borrowed) for the lattice's lifetime, so no column
  /// it borrows may be written while the lattice is in use; array
  /// postings are scattered into bitmaps the lattice owns. ApplyNode
  /// reports each query's writes to the index as deltas, so it stays exact.
  PostingIndex* index = nullptr;
  /// Read by nothing: every lattice but a naive_init one is lazy. Kept
  /// only because perfbench/src/engine.cc sets it; it goes with the next
  /// change to perfbench.
  bool lazy = true;
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

  /// True iff attribute `i`'s predicate reads the index's dense posting in
  /// place instead of a bitmap the lattice owns.
  bool pred_borrowed(size_t i) const { return preds_.borrowed(i); }

  /// The repair this lattice generalizes.
  const Repair& repair() const { return repair_; }
  size_t target_col() const { return repair_.col; }
  ValueId target_value() const { return target_value_; }

  // --- Affected sets ---------------------------------------------------------

  /// Node `n`'s affected rows, built on first access from the largest
  /// resident subset of n and kept for the lattice's lifetime.
  const RowSet& AffectedRows(NodeId n) const;

  /// |AffectedRows(n)|. The first call counts every node in one kernel
  /// pass; later calls are lookups. Never builds a bitmap.
  size_t Count(NodeId n) const;

  /// Legacy accessor names (aliases of AffectedRows/Count).
  const RowSet& affected(NodeId n) const { return AffectedRows(n); }
  size_t affected_count(NodeId n) const { return Count(n); }

  /// True once node `n`'s bitmap is resident.
  bool materialized(NodeId n) const {
    return affected_[n].universe_size() == num_table_rows_;
  }

  /// Laziness counters for SessionMetrics / the benches.
  struct LazyStats {
    size_t nodes_materialized = 0;  ///< Node bitmaps resident.
  };
  LazyStats lazy_stats() const { return {resident_.size()}; }

  // --- Validity and inference ------------------------------------------------

  Validity validity(NodeId n) const { return validity_[n]; }

  /// Marks `n` valid and infers validity for every more-specific node
  /// (supersets of n's attribute set). Inference never overwrites a state
  /// already known.
  void MarkValid(NodeId n);

  /// Marks `n` invalid and infers invalidity for every more-general node
  /// (subsets of n's attribute set).
  void MarkInvalid(NodeId n);

  // --- Application and maintenance -------------------------------------------

  /// Per-case node tallies for the incremental maintenance of Section
  /// 5.1.2. One delta pass serves all three cases; the tallies depend only
  /// on the applied node's mask.
  struct MaintenanceStats {
    size_t case1_contained = 0;  ///< Q' ≤ Q: the whole count is subtracted.
    size_t case2_containing = 0; ///< Q ≤ Q'': |Q(T)| is subtracted.
    size_t case3_disjoint = 0;   ///< the overlap with Q(T) is subtracted.
  };

  /// Applies node `n`'s query to `table` (which must be the table the
  /// lattice was built over): writes the target value into every affected
  /// row and keeps every count and resident bitmap exact (Section 5.1.2):
  /// the counts lose the kernel's delta over the repaired words, the
  /// resident bitmaps one AND-NOT over the same words, and the predicate
  /// bitmaps over the repaired column follow the write. Returns the
  /// changed rows.
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

  /// Naive maintenance (Fig. 8a's strawman): recomputes every affected set
  /// from the current table contents under the original bindings, at once.
  /// A naive_init lattice re-runs its row loop over every node; any other
  /// drops its node bitmaps, refetches the bottom and predicate bitmaps and
  /// recounts every node in one full kernel pass.
  void RecomputeAffected(const Table& table);

  // --- Query materialization ---------------------------------------------------

  /// Renders node `n` as a SQLU statement.
  SqluQuery NodeQuery(NodeId n) const;

  /// Human-readable attribute-set label, e.g. "{Molecule, Laboratory}".
  std::string NodeLabel(NodeId n) const;

  // --- Closed rule sets (Section 5.2) -----------------------------------------

  /// Representative rule of n's closed rule set: the set member with the
  /// most WHERE predicates. Attribute i keeps n's affected set unchanged iff
  /// Count(n ∪ {i}) == Count(n) (the child's set is a subset of n's), so
  /// rep(n) = n ∪ {i : Count(n ∪ {i}) == Count(n)}: k count lookups and no
  /// bitmap. (Equal-set classes are closed under attribute union, which
  /// makes this closure their unique maximal member.) An empty affected set
  /// closes to the top node.
  NodeId Representative(NodeId n) const;

  /// Number of distinct closed rule sets at the current counts: the
  /// number of distinct representatives (stats only).
  size_t NumClosedSets() const;

 private:
  Lattice() = default;

  /// Fills affected_[bottom] and the per-attribute predicate bitmaps
  /// preds_: from the posting index when present (dense postings of
  /// non-repaired columns borrowed, the rest owned copies), else owned
  /// column scans.
  void InitBottomAndPreds(const Table& table);
  /// naive_init: fills every node's bitmap by a row loop, marks it
  /// resident and counts it by popcount.
  void InitAffectedNaive(const Table& table);
  /// Runs the lattice_counts kernel with `base` over `words` (null: all
  /// words), adding into `out` (2^k entries).
  void KernelCounts(const RowSet& base, const std::vector<uint32_t>* words,
                    size_t* out) const;

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
  bool naive_init_ = false;

  /// Per-attribute predicate bitmaps. Attribute i reads either a bitmap
  /// the lattice owns or, borrowed, the dense posting the index holds for
  /// (cols_[i], bindings_[i]). Borrowing is limited to columns other than
  /// the repaired one: within an episode only the repaired column's
  /// postings change, and the session trims the index only after the
  /// lattice is gone. The predicates over the repaired column stay owned
  /// because ApplyNode maintains them, which keeps the counts and every
  /// bitmap built after repairs exact. A copy of the lattice re-points its
  /// owned predicates at its own bitmaps.
  struct Predicates {
    std::vector<RowSet> owned;        // Attribute i's bitmap when owned.
    std::vector<const RowSet*> bits;  // Attribute i's bitmap, either way.
    /// Table::column_writes of each borrowed column when it was borrowed.
    std::vector<uint64_t> writes;

    Predicates() = default;
    Predicates(const Predicates& other)
        : owned(other.owned), bits(other.bits), writes(other.writes) {
      Repoint(other);
    }
    Predicates& operator=(const Predicates& other) {
      owned = other.owned;
      bits = other.bits;
      writes = other.writes;
      Repoint(other);
      return *this;
    }
    Predicates(Predicates&&) = default;
    Predicates& operator=(Predicates&&) = default;

    bool borrowed(size_t i) const { return bits[i] != &owned[i]; }
    const RowSet& operator[](size_t i) const { return *bits[i]; }

   private:
    void Repoint(const Predicates& other) {
      for (size_t i = 0; i < bits.size(); ++i) {
        if (!other.borrowed(i)) bits[i] = &owned[i];
      }
    }
  };
  Predicates preds_;
  /// The table the lattice was built over; read only to check that no
  /// borrowed column was written (FALCON_DCHECK).
  const Table* table_ = nullptr;
  /// Dies (debug builds) if a borrowed predicate's column was written
  /// since it was borrowed.
  void CheckBorrowed() const;

  // Mutable because counting and materialization are memoization: const
  // accessors (oracles, tests) observe identical values whether or not the
  // state was resident beforehand. An empty set (universe 0 ≠
  // num_table_rows_) marks "not materialized"; resident_ lists every
  // materialized node, so ApplyNode maintains only those. counts_ is empty
  // until the first Count and then holds all 2^k counts.
  mutable std::vector<RowSet> affected_;
  mutable std::vector<NodeId> resident_;
  mutable std::vector<size_t> counts_;

  std::vector<Validity> validity_;
  MaintenanceStats maintenance_stats_;
};

}  // namespace falcon

#endif  // FALCON_CORE_LATTICE_H_
