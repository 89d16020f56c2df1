// CleaningSession: the full FALCON workflow (Fig. 1) driven by a simulated
// user until the dirty instance converges to the clean one.
//
// Loop: ① the user repairs one dirty cell (a user update, U); ② FALCON
// builds the query lattice over the top-k correlated attributes and a
// search algorithm asks up to B validity questions (user answers, A),
// applying each validated query immediately; ③ if no applied query fixed
// the user's own cell, the single-cell update (the lattice's top node) is
// executed. The loop ends when no dirty cells remain.
//
// Metrics follow Section 6: T_C = U + A and benefit BNF = 1 − T_C/|errors|.
#ifndef FALCON_CORE_SESSION_H_
#define FALCON_CORE_SESSION_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/search.h"
#include "core/session_journal.h"
#include "core/violation_detector.h"
#include "profiling/correlation.h"
#include "relational/posting_index.h"
#include "relational/table.h"

namespace falcon {

/// Configuration of one cleaning run.
struct SessionOptions {
  /// B: maximum user answers per update.
  size_t budget = 3;
  /// Total lattice attributes (the repaired attribute + top-(k−1)
  /// correlated attributes; Section 5.1.1 partial materialization).
  size_t lattice_attrs = 7;
  /// Closed rule sets optimization (Section 5.2).
  bool use_closed_sets = true;
  /// Dive/CoDive tunables (d, w) and Ducc seed.
  SearchTuning tuning;
  /// Probability a validity answer is flipped (Exp-5).
  double question_mistake_prob = 0.0;
  /// Probability a user update writes a wrong value (Exp-5, case i). Each
  /// cell suffers at most one wrong update, mirroring the paper's cycle
  /// notification.
  double update_mistake_prob = 0.0;
  /// Lattice construction toggles (naive init, master-data variant).
  LatticeOptions lattice;
  /// Rebuild all affected sets after each applied rule instead of the
  /// incremental maintenance (Fig. 8a strawman).
  bool naive_maintenance = false;
  /// Row sample used by the CORDS profiler (0 = full table).
  size_t profile_sample_rows = 5000;
  /// Cache predicate posting bitmaps across lattices.
  bool use_posting_index = true;
  /// Posting-cache byte cap (0 = unbounded). Least-recently-used bitmaps
  /// are evicted between lattice episodes so million-row tables don't
  /// hoard memory.
  size_t posting_budget_bytes = 0;
  /// Store each sparse posting (count · 32 < rows) as a sorted row-id
  /// array and the rest as dense bitmaps (PostingIndexOptions::compressed);
  /// off stores every posting dense. Bit-identical questions/answers/
  /// metrics/final tables either way — only resident bytes and the
  /// lattice's copy cost change: dense postings are read in place, arrays
  /// are scattered into a bitmap per build.
  bool compressed_rowsets = true;
  /// Remember validated/invalidated rule shapes across updates and bias
  /// CoDive toward historically fruitful attribute sets (the paper's §8
  /// future-work direction). Off by default to match the paper's setup.
  bool use_rule_history = false;
  uint64_t seed = 1234;
  /// Safety valve: abort after this many user updates (0 = 10·|errors|).
  size_t max_updates = 0;
  /// Optional master relation (Appendix B): rule patterns the master
  /// covers are validated or refuted for free instead of consuming user
  /// capacity. Must share the dirty table's ValuePool; attributes align by
  /// name. Non-owning.
  const Table* master = nullptr;
  /// Detector-driven mode: instead of an omniscient dirty-cell worklist,
  /// the user "examines the data" through the FD-violation detector and
  /// repairs flagged cells; the run ends when detection comes up dry.
  /// Residual errors the detector cannot see stay unrepaired
  /// (converged=false reports them honestly).
  bool detector_driven = false;
  /// Detector configuration for detector_driven mode.
  ViolationDetectorOptions detector;
  /// Crash-safety write-ahead journal (empty = off). Run() starts a fresh
  /// journal here; Recover() replays an existing one after a crash. Every
  /// oracle answer, user update, applied repair (with before-images), and
  /// retraction is appended before its table writes take effect.
  std::string journal_path;
  /// Externally-owned oracle replacing the internally-built simulated user
  /// (the service layer passes a ScriptedOracle fed by client `answer`
  /// verdicts). Must outlive the session; `master` is ignored when set.
  /// Constructed as UserOracle(clean, question_mistake_prob, seed + 1) it
  /// reproduces the internal oracle bit-for-bit.
  UserOracle* oracle = nullptr;
  /// A/B strawman for AppendBatch: instead of O(batch) incremental
  /// maintenance (posting Resize+fold), drop every cached posting bitmap
  /// so the next lattice rebuilds them from full table scans. Identical
  /// questions/answers/repairs — only timing changes. This is the
  /// "rebuild" leg of the Fig. 8 append-vs-rebuild comparison.
  bool append_rebuild = false;
};

/// Outcome of a cleaning run.
struct SessionMetrics {
  size_t user_updates = 0;        ///< U.
  size_t user_answers = 0;        ///< A (billed to the user).
  size_t master_answers = 0;      ///< Questions the master data answered.
  size_t initial_errors = 0;      ///< |Q(T)|: dirty cells at start.
  size_t cells_repaired = 0;      ///< Cells moved to their clean value.
  size_t queries_applied = 0;     ///< Validated rules executed.
  bool converged = false;         ///< Instance equals clean at the end.

  double lattice_build_ms = 0.0;
  double lattice_maintain_ms = 0.0;
  size_t lattices_built = 0;

  // Posting-index behaviour over the run (see PostingIndexStats).
  size_t posting_hits = 0;
  size_t posting_misses = 0;
  size_t posting_delta_rows = 0;
  size_t posting_evictions = 0;
  double posting_scan_ms = 0.0;   ///< Table-scan time filling the cache.
  double posting_delta_ms = 0.0;  ///< Time patching bitmaps in place.

  // Always 0: there is no shared posting tier any more. Kept only because
  // the perfbench program still reads them.
  size_t posting_shared_hits = 0;
  size_t posting_shared_misses = 0;

  // Posting storage at the end of the run (see PostingStorageStats).
  size_t posting_entries = 0;         ///< Cached (column, value) postings.
  size_t posting_resident_bytes = 0;  ///< Payload bytes of cached postings.
  size_t posting_dense_bytes = 0;     ///< Dense-equivalent bytes of the same.
  double posting_compression = 1.0;   ///< dense/resident (>1 ⇒ winning).

  // Lattice node bitmaps over the run (see Lattice::LazyStats).
  size_t nodes_materialized = 0;   ///< Node bitmaps actually computed.
  size_t nodes_total = 0;          ///< Σ 2^k across built lattices.
  // Always 0: the lattice no longer memoizes pairwise intersections across
  // lattices. Kept only because the perfbench program still reads them.
  size_t lattice_memo_hits = 0;
  size_t lattice_memo_misses = 0;
  size_t lattice_memo_admitted = 0;
  size_t lattice_memo_shared_hits = 0;

  // Streaming append (AppendBatch) over the run.
  size_t rows_appended = 0;        ///< Rows added after Start().
  size_t append_batches = 0;       ///< AppendBatch calls that added rows.
  /// Time spent extending cached state (posting bitmaps, worklist diff)
  /// for appended rows — the cost the incremental path keeps at O(batch)
  /// and append_rebuild re-pays as full-table scans inside the next
  /// lattice build instead.
  double append_maintain_ms = 0.0;
  /// rows_appended / total wall-clock seconds inside AppendBatch.
  double ingest_rows_per_s = 0.0;

  size_t TotalCost() const { return user_updates + user_answers; }
  double Benefit() const {
    return initial_errors == 0
               ? 0.0
               : 1.0 - static_cast<double>(TotalCost()) /
                           static_cast<double>(initial_errors);
  }

  /// Derived hit rates in [0, 1] (0.0 when there were no probes), so
  /// dashboards and the status/ping verbs never recompute them from raw
  /// counter pairs by hand.
  static double Rate(size_t hits, size_t total) {
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
  /// Posting probes served from the session's cache.
  double PostingHitRate() const {
    return Rate(posting_hits, posting_hits + posting_misses);
  }
};

/// Runs one cleaning workflow to convergence.
class CleaningSession {
 public:
  /// `clean` is the ground truth (shared ValuePool with `dirty` required);
  /// `dirty` is mutated in place. `algorithm` persists across updates.
  CleaningSession(const Table* clean, Table* dirty,
                  SearchAlgorithm* algorithm, SessionOptions options);

  /// Executes the workflow; returns metrics (converged=false if the
  /// safety-valve limit was hit). With options.journal_path set, starts a
  /// fresh write-ahead journal; an injected or real fault surfaces as an
  /// error Status, after which Recover() on a new session (same
  /// clean/dirty/options) resumes.
  StatusOr<SessionMetrics> Run();

  /// Crash recovery: reads the journal at options.journal_path (tolerating
  /// a torn tail), rolls the dirty table back to the session's initial
  /// state via before-images, then re-runs the workflow consuming the
  /// journaled interactions as authoritative — reproducing the original
  /// run bit-for-bit up to the crash point and continuing live past it.
  /// With no journal on disk this is a plain Run().
  StatusOr<SessionMetrics> Recover();

  /// Daemon-restart recovery for interactively-stepped (service) sessions:
  /// like Recover(), but stops at the end of the journaled prefix instead
  /// of running to convergence — an episode the crash interrupted midway is
  /// completed deterministically, then control returns so the client
  /// resumes stepping with RunSteps(). With no journal on disk the session
  /// is started fresh (journal header written) without running an episode.
  StatusOr<SessionMetrics> RecoverToReplayEnd();

  /// Retracts a mistakenly-validated rule: undoes repair-log entry `i`
  /// (before-images back into the table, posting bitmaps reversed), and
  /// re-poses the affected cells on the worklist. Refuses with
  /// FailedPrecondition when a later repair overlaps entry i's cells
  /// (retract newest-first). Call after Run/Recover returned; follow with
  /// Continue() to re-clean the re-dirtied region.
  Status RetractRule(size_t i);

  /// Resumes the main loop after RetractRule (or a partial run): drains
  /// the worklist and returns the updated cumulative metrics.
  StatusOr<SessionMetrics> Continue();

  /// Stepwise (service) execution: starts the session on the first call,
  /// then runs at most `max_episodes` user-update episodes (0 = run to
  /// convergence). State persists across calls, so N calls of one episode
  /// reproduce Run() bit-for-bit; finished() reports completion.
  StatusOr<SessionMetrics> RunSteps(size_t max_episodes);

  /// Queues an externally-supplied user update (service `update_cell`):
  /// the next episode repairs (row, col) toward `value` — journaled and
  /// billed like a simulated update, but never mistake-perturbed — instead
  /// of popping the internal worklist.
  Status SubmitUpdate(uint32_t row, uint32_t col, std::string value);

  /// Streaming append: the dirty table grows by `dirty_chunk` (column-major
  /// interned-id columns, one inner vector per attribute, all the same
  /// length). The caller must have already appended the matching
  /// ground-truth rows to the clean table — on entry
  /// clean.num_rows == dirty.num_rows + batch.
  ///
  /// All session state is maintained in O(batch), not O(table): posting
  /// bitmaps grow their universes and fold in only the new rows
  /// (PostingIndex::ApplyAppend), and the worklist gains exactly the new
  /// rows' dirty cells. Under options.append_rebuild the cached state is
  /// dropped instead (the Fig. 8 rebuild strawman). The safety valve
  /// re-arms for the grown error count. Call between episodes (after
  /// Run/RunSteps returned); FailedPrecondition before Start, during
  /// journaled runs, or during replay — appends are outside the
  /// crash-safety envelope.
  Status AppendBatch(const std::vector<std::vector<ValueId>>& dirty_chunk);

  /// True once the main loop ran to its natural end (converged, detector
  /// came up dry, or the safety valve fired). Retractions and submitted
  /// updates re-open a finished session.
  bool finished() const { return finished_; }

  /// Metrics accumulated so far (valid after any Run*/Continue call).
  const SessionMetrics& metrics() const { return metrics_; }

  /// Cells queued for repair: internal worklist + submitted updates.
  size_t pending_cells() const {
    return worklist_.size() + external_updates_.size();
  }

  /// Journal of every repair Run executed (rules and manual fixes), with
  /// before-images; supports UndoLast against the dirty table.
  const RepairLog& log() const { return log_; }
  RepairLog& mutable_log() { return log_; }

  /// Cross-update rule-shape memory (populated when
  /// options.use_rule_history is set).
  const RuleHistory& history() const { return history_; }

 private:
  /// Builds all run state over the *current* dirty table (which recovery
  /// has already rolled back to the initial instance): worklist, profiler,
  /// oracle, posting index, RNGs. `fresh` truncates/starts the journal;
  /// recovery instead opens it for append after the replayed prefix.
  Status Start(bool fresh);

  /// The interactive loop (workflow steps ①–③ per user update), shared by
  /// Run/Recover/Continue/RunSteps; `max_episodes` 0 runs to the natural
  /// end. During recovery it consumes replayed records — including kRetract
  /// records re-executed between passes.
  StatusOr<SessionMetrics> MainLoop(size_t max_episodes);

  /// The oracle answering this session's questions: the external override
  /// when configured, else the internally-built simulated user.
  UserOracle* ActiveOracle() {
    return options_.oracle != nullptr ? options_.oracle : oracle_.get();
  }

  /// Journal-or-replay gate (see LatticeSearchContext::JournalHook): live
  /// appends `*r`; replay verifies it against the cursor and rewrites it to
  /// the journaled version.
  Status Emit(JournalRecord* r);
  bool Replaying() const { return replay_pos_ < replay_.size(); }

  /// Shared body of Recover()/RecoverToReplayEnd().
  StatusOr<SessionMetrics> RecoverImpl(bool stop_after_replay);

  size_t RefillFromDetector();
  void ExportPostingStats();

  const Table* clean_;
  Table* dirty_;
  SearchAlgorithm* algorithm_;
  SessionOptions options_;
  RepairLog log_;
  RuleHistory history_;

  // Run state (valid between Start and the end of the session).
  bool started_ = false;
  bool finished_ = false;
  SessionMetrics metrics_;
  size_t max_updates_ = 0;
  std::deque<std::pair<uint32_t, uint32_t>> worklist_;
  struct ExternalUpdate {
    uint32_t row;
    uint32_t col;
    std::string value;
  };
  std::deque<ExternalUpdate> external_updates_;
  std::unique_ptr<UserOracle> oracle_;
  class MasterBackedOracle* master_oracle_ = nullptr;
  std::unique_ptr<CordsProfiler> profiler_;
  std::unique_ptr<PostingIndex> posting_index_;
  LatticeOptions lattice_options_;
  Rng update_rng_{0};
  std::unordered_set<uint64_t> wrong_updated_;
  /// Cumulative wall-clock ms inside AppendBatch (ingest_rows_per_s).
  double append_ingest_ms_ = 0.0;

  // Crash-safety state.
  std::unique_ptr<SessionJournal> journal_;
  std::vector<JournalRecord> replay_;  ///< Records being replayed.
  size_t replay_pos_ = 0;
  /// RecoverToReplayEnd mode: MainLoop returns at the first episode
  /// boundary past the replayed prefix instead of continuing live.
  bool stop_after_replay_ = false;
};

/// Convenience: run `kind` over a fresh copy of `dirty`.
StatusOr<SessionMetrics> RunCleaning(const Table& clean, const Table& dirty,
                                     SearchKind kind,
                                     const SessionOptions& options = {});

}  // namespace falcon

#endif  // FALCON_CORE_SESSION_H_
