// Search framework: the per-update interaction loop over one lattice.
// LatticeSearchContext mediates every user question — enforcing the budget,
// redirecting questions to closed-rule-set representatives, applying
// validated queries immediately (workflow step 3), and running the lattice
// inference rules — so individual algorithms only decide *which* node to
// ask next.
//
// Algorithms rank and filter nodes by Lattice::Count, which counts the
// whole lattice in one kernel pass on first use and is a lookup after
// that (see lattice.h), so no algorithm schedules counting work. Node
// bitmaps are built only for the rows a question or an apply needs. Every
// observable (questions asked, answers, applied repairs) is bit-identical
// to the eager path's.
#ifndef FALCON_CORE_SEARCH_H_
#define FALCON_CORE_SEARCH_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/lattice.h"
#include "core/oracle.h"
#include "core/repair_log.h"
#include "core/rule_history.h"
#include "core/session_journal.h"
#include "profiling/correlation.h"
#include "relational/table.h"

namespace falcon {

/// Tunables shared by the search algorithms.
struct SearchTuning {
  /// Dive: number of consecutive wrong jumps before restarting on nodes not
  /// linked to any verified node (the paper's d; best value 3, Fig. 6b).
  size_t dive_depth = 3;
  /// CoDive: half-width of the correlation re-ranking window around the
  /// binary-jump position (the paper's w; best value 3, Fig. 6a).
  size_t codive_window = 3;
  /// Seed for randomized strategies (Ducc's walk).
  uint64_t seed = 7;
  /// Binary-jump target (Section 4.2.1). The paper settles on the
  /// log-scale target ceil(log2(lo+hi)) after arguing the median is overly
  /// optimistic; the geometric mean (the log-space midpoint) is a third
  /// natural reading kept as an ablation.
  enum class JumpTarget { kLogScale, kMedian, kGeometric };
  JumpTarget jump_target = JumpTarget::kLogScale;
};

/// Accumulates timing/counters across a cleaning run (filled by the session
/// driver and the context).
struct SearchStats {
  double maintain_ms = 0.0;   ///< Incremental (or naive) maintenance time.
  size_t applies = 0;         ///< Queries executed.
  size_t cells_changed = 0;   ///< Cells written by executed queries.
};

/// One lattice's interactive episode.
class LatticeSearchContext {
 public:
  /// `on_apply(changed_rows, col)` lets the session driver update its dirty
  /// worklist after each executed query. `profiler` may be null (Dive and
  /// one-hop algorithms don't need correlations).
  LatticeSearchContext(Lattice* lattice, Table* dirty, UserOracle* oracle,
                       size_t budget, bool use_closed_sets,
                       bool naive_maintenance, CordsProfiler* profiler,
                       SearchStats* stats,
                       std::function<void(const RowSet&, size_t)> on_apply);

  Lattice& lattice() { return *lattice_; }
  const SearchTuning& tuning() const { return tuning_; }
  void set_tuning(const SearchTuning& t) { tuning_ = t; }

  /// False once the budget is spent — or once an error (injected fault,
  /// journal I/O failure, oracle outage) latched into status(). Algorithms
  /// loop on BudgetLeft()/Ask-nullopt, so a sticky error quenches every
  /// strategy without per-algorithm error handling.
  bool BudgetLeft() const { return status_.ok() && answers_used_ < budget_; }
  size_t answers_used() const { return answers_used_; }
  size_t budget() const { return budget_; }

  /// First error the episode hit (Ok while healthy). Checked by the session
  /// driver after the algorithm returns; sticky — once set, BudgetLeft is
  /// false and Ask/ApplyValid are no-ops.
  const Status& status() const { return status_; }

  /// Result of one user question.
  struct AskResult {
    NodeId asked;  ///< The node actually verified (set representative).
    bool valid;
  };

  /// Asks the user about `n` (redirected to its closed-set representative
  /// when enabled). On a valid answer the query is applied immediately and
  /// the lattice maintained. Returns nullopt when the budget is exhausted.
  std::optional<AskResult> Ask(NodeId n);

  /// Ground-truth validity at zero interaction cost (OffLine only).
  bool TrueValid(NodeId n) const { return oracle_->TrueValid(*lattice_, n); }

  /// Applies a node known (or assumed) valid without asking — used by the
  /// OffLine algorithm and by the session's fallback single-cell fix.
  RowSet ApplyValid(NodeId n);

  /// cor(attr(n), target attribute) for CoDive scoring; 0 without profiler.
  double Correlation(NodeId n);

  /// Cross-update rule-shape prior (1.0 without history; see RuleHistory).
  double HistoryBoost(NodeId n) const;

  /// Nodes explicitly verified by the user in this episode.
  const std::vector<NodeId>& verified() const { return verified_; }

  /// Optional cross-update hooks, set by the session driver.
  void set_rule_history(RuleHistory* history) { history_ = history; }
  void set_repair_log(RepairLog* log) { log_ = log; }

  /// Write-ahead journal hook. Called with each kAnswer/kApply record
  /// *before* its effect is taken; the hook either appends it (live) or
  /// matches it against the journal cursor and rewrites it to the
  /// journaled, authoritative version (replay). A failed hook latches into
  /// status() and stops the episode.
  using JournalHook = std::function<Status(JournalRecord*)>;
  void set_journal_hook(JournalHook hook) { journal_hook_ = std::move(hook); }

 private:
  std::vector<size_t> NodeCols(NodeId n) const;

  Lattice* lattice_;
  Table* dirty_;
  UserOracle* oracle_;
  size_t budget_;
  bool use_closed_sets_;
  bool naive_maintenance_;
  CordsProfiler* profiler_;
  SearchStats* stats_;
  std::function<void(const RowSet&, size_t)> on_apply_;
  SearchTuning tuning_;
  RuleHistory* history_ = nullptr;
  RepairLog* log_ = nullptr;
  JournalHook journal_hook_;
  Status status_ = Status::Ok();
  size_t answers_used_ = 0;
  std::vector<NodeId> verified_;
};

/// Strategy interface. One instance persists across a whole cleaning run
/// (ActiveLearning accumulates training data across sessions); Run is
/// invoked once per user update with a fresh lattice.
class SearchAlgorithm {
 public:
  virtual ~SearchAlgorithm() = default;
  virtual std::string name() const = 0;

  /// Called before each session's lattice episode with the session index
  /// (number of user updates so far).
  virtual void OnSessionStart(size_t /*session_index*/) {}

  /// Asks questions through `ctx` until the budget is spent or the
  /// algorithm has nothing useful left to ask.
  virtual void Run(LatticeSearchContext& ctx) = 0;
};

/// Built-in strategies.
enum class SearchKind { kBfs, kDfs, kDucc, kDive, kCoDive, kOffline };

const char* SearchKindName(SearchKind kind);
std::unique_ptr<SearchAlgorithm> MakeSearchAlgorithm(SearchKind kind);

}  // namespace falcon

#endif  // FALCON_CORE_SEARCH_H_
