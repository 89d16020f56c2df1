#include "core/search.h"

#include <chrono>
#include <thread>

#include "common/fault_injector.h"
#include "core/search_algorithms.h"
#include "relational/posting_index.h"

namespace falcon {
namespace {

// Bounded retry for transient (kUnavailable) oracle faults: the user/master
// endpoint being briefly unreachable should not kill the session. Non-
// transient faults and exhaustion propagate to the context's sticky status.
constexpr int kMaxOracleAttempts = 4;
constexpr int kOracleBackoffBaseUs = 50;

Status HitOracleSiteWithRetry() {
  Status fault = Status::Ok();
  for (int attempt = 0; attempt < kMaxOracleAttempts; ++attempt) {
    fault = FaultInjector::Global().Hit("oracle.answer");
    if (fault.ok() || !fault.IsTransient()) break;
    std::this_thread::sleep_for(
        std::chrono::microseconds(kOracleBackoffBaseUs << attempt));
  }
  return fault;
}

}  // namespace

LatticeSearchContext::LatticeSearchContext(
    Lattice* lattice, Table* dirty, UserOracle* oracle, size_t budget,
    bool use_closed_sets, bool naive_maintenance, CordsProfiler* profiler,
    SearchStats* stats, std::function<void(const RowSet&, size_t)> on_apply)
    : lattice_(lattice),
      dirty_(dirty),
      oracle_(oracle),
      budget_(budget),
      use_closed_sets_(use_closed_sets),
      naive_maintenance_(naive_maintenance),
      profiler_(profiler),
      stats_(stats),
      on_apply_(std::move(on_apply)) {}

RowSet LatticeSearchContext::ApplyValid(NodeId n) {
  if (!status_.ok()) return RowSet(dirty_->num_rows());
  Status fault = FaultInjector::Global().Hit("apply.rule");
  if (!fault.ok()) {
    status_ = std::move(fault);
    return RowSet(dirty_->num_rows());
  }
  auto t0 = std::chrono::steady_clock::now();
  size_t col = lattice_->target_col();
  // The rows this rule rewrites, resolved (and possibly materialized)
  // before the pool lock below: the WithTexts callback must not reach back
  // into the pool.
  const RowSet& rows = lattice_->affected(n);
  // Write-ahead: the durable journal record (with text before-images) must
  // land before any table byte changes, so a crash mid-apply rolls back.
  if (journal_hook_) {
    JournalRecord rec;
    rec.kind = JournalRecord::Kind::kApply;
    rec.node = static_cast<uint32_t>(n);
    rec.col = static_cast<uint32_t>(col);
    rec.manual = n == lattice_->top();
    rec.value = std::string(dirty_->pool()->Get(lattice_->target_value()));
    dirty_->pool()->WithTexts([&](const ValuePool::Texts& texts) {
      rows.ForEach([&](size_t r) {
        rec.before.emplace_back(static_cast<uint32_t>(r),
                                std::string(texts[dirty_->cell(r, col)]));
      });
    });
    Status st = journal_hook_(&rec);
    if (!st.ok()) {
      status_ = std::move(st);
      return RowSet(dirty_->num_rows());
    }
  }
  // Journal the before-images while they are still in the table.
  if (log_ != nullptr) {
    // Sized exactly: the vector lives in the repair log for the session.
    std::vector<std::pair<uint32_t, ValueId>> before;
    before.reserve(rows.Count());
    rows.ForEach([&](size_t r) {
      before.emplace_back(static_cast<uint32_t>(r), dirty_->cell(r, col));
    });
    log_->Record(lattice_->NodeQuery(n), col, std::move(before),
                 /*manual=*/n == lattice_->top());
  }
  RowSet changed = lattice_->ApplyNode(n, *dirty_, &fault);
  if (!fault.ok()) {
    status_ = std::move(fault);
    return changed;
  }
  if (naive_maintenance_) {
    // Fig. 8(a)'s strawman: throw the incremental result away and rebuild
    // every affected set from the table. In delta mode ApplyNode already
    // patched the cached postings; otherwise the target column's entries
    // are stale and must be dropped before the rescan.
    if (lattice_->index() != nullptr &&
        !lattice_->index()->delta_maintenance()) {
      lattice_->index()->InvalidateColumn(lattice_->target_col());
    }
    lattice_->RecomputeAffected(*dirty_);
  }
  auto t1 = std::chrono::steady_clock::now();
  if (stats_ != nullptr) {
    stats_->maintain_ms +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    stats_->applies += 1;
    stats_->cells_changed += changed.Count();
  }
  if (on_apply_) on_apply_(changed, lattice_->target_col());
  return changed;
}

std::optional<LatticeSearchContext::AskResult> LatticeSearchContext::Ask(
    NodeId n) {
  if (!BudgetLeft()) return std::nullopt;

  NodeId q = n;
  if (use_closed_sets_) {
    NodeId rep = lattice_->Representative(n);
    // Only redirect to a representative whose validity is still open;
    // otherwise asking it would waste the question.
    if (lattice_->validity(rep) == Validity::kUnknown) q = rep;
  }
  if (lattice_->validity(q) != Validity::kUnknown) {
    // The caller picked a node whose state is already known (possible after
    // closed-set redirection); report it for free.
    return AskResult{q, lattice_->validity(q) == Validity::kValid};
  }

  // Fault site sits *before* AnswerEx so failed attempts don't advance the
  // oracle's RNG stream (replay determinism depends on aligned draws).
  Status fault = HitOracleSiteWithRetry();
  if (!fault.ok()) {
    status_ = std::move(fault);
    return std::nullopt;
  }
  UserOracle::Answered answer = oracle_->AnswerEx(*lattice_, q);
  if (journal_hook_) {
    JournalRecord rec;
    rec.kind = JournalRecord::Kind::kAnswer;
    rec.node = static_cast<uint32_t>(q);
    rec.valid = answer.valid;
    rec.billed = answer.billed;
    Status st = journal_hook_(&rec);
    if (!st.ok()) {
      status_ = std::move(st);
      return std::nullopt;
    }
    // Replay rewrites the record to the journaled verdict; take it as
    // authoritative so recovery reproduces the original run bit-for-bit.
    answer.valid = rec.valid;
    answer.billed = rec.billed;
  }
  if (answer.billed) ++answers_used_;
  verified_.push_back(q);
  if (history_ != nullptr) {
    history_->Record(lattice_->target_col(), NodeCols(q), answer.valid);
  }
  if (answer.valid) {
    lattice_->MarkValid(q);
    ApplyValid(q);
  } else {
    lattice_->MarkInvalid(q);
  }
  return AskResult{q, answer.valid};
}

std::vector<size_t> LatticeSearchContext::NodeCols(NodeId n) const {
  std::vector<size_t> cols;
  const std::vector<size_t>& lattice_cols = lattice_->lattice_cols();
  for (size_t i = 0; i < lattice_cols.size(); ++i) {
    if ((n >> i) & 1) cols.push_back(lattice_cols[i]);
  }
  return cols;
}

double LatticeSearchContext::HistoryBoost(NodeId n) const {
  if (history_ == nullptr) return 1.0;
  return history_->Boost(lattice_->target_col(), NodeCols(n));
}

double LatticeSearchContext::Correlation(NodeId n) {
  if (profiler_ == nullptr || n == 0) return 0.0;
  std::vector<size_t> x_cols;
  const std::vector<size_t>& cols = lattice_->lattice_cols();
  for (size_t i = 0; i < cols.size(); ++i) {
    if ((n >> i) & 1) x_cols.push_back(cols[i]);
  }
  // Correlation of the WHERE attributes with the updated attribute. When
  // the WHERE clause is just the updated attribute itself (the
  // standardization query), treat it as strongly related.
  if (x_cols.size() == 1 && x_cols[0] == lattice_->target_col()) return 1.0;
  std::vector<size_t> filtered;
  for (size_t c : x_cols) {
    if (c != lattice_->target_col()) filtered.push_back(c);
  }
  if (filtered.empty()) return 1.0;
  return profiler_->SetCorrelation(filtered, lattice_->target_col());
}

const char* SearchKindName(SearchKind kind) {
  switch (kind) {
    case SearchKind::kBfs:
      return "BFS";
    case SearchKind::kDfs:
      return "DFS";
    case SearchKind::kDucc:
      return "Ducc";
    case SearchKind::kDive:
      return "Dive";
    case SearchKind::kCoDive:
      return "CoDive";
    case SearchKind::kOffline:
      return "OffLine";
  }
  return "?";
}

std::unique_ptr<SearchAlgorithm> MakeSearchAlgorithm(SearchKind kind) {
  switch (kind) {
    case SearchKind::kBfs:
      return std::make_unique<BfsSearch>();
    case SearchKind::kDfs:
      return std::make_unique<DfsSearch>();
    case SearchKind::kDucc:
      return std::make_unique<DuccSearch>();
    case SearchKind::kDive:
      return std::make_unique<DiveSearch>();
    case SearchKind::kCoDive:
      return std::make_unique<CoDiveSearch>();
    case SearchKind::kOffline:
      return std::make_unique<OfflineSearch>();
  }
  return nullptr;
}

}  // namespace falcon
