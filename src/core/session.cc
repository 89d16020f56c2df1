#include "core/session.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "core/master_oracle.h"
#include "core/oracle.h"

namespace falcon {

CleaningSession::CleaningSession(const Table* clean, Table* dirty,
                                 SearchAlgorithm* algorithm,
                                 SessionOptions options)
    : clean_(clean),
      dirty_(dirty),
      algorithm_(algorithm),
      options_(options) {}

size_t CleaningSession::RefillFromDetector() {
  ViolationReport report = DetectViolations(*dirty_, options_.detector);
  size_t added = 0;
  for (const Suspect& s : report.suspects) {
    // The user inspects the flagged cell; false alarms are dismissed.
    if (dirty_->cell(s.row, s.col) != clean_->cell(s.row, s.col)) {
      worklist_.emplace_back(s.row, static_cast<uint32_t>(s.col));
      ++added;
    }
  }
  return added;
}

void CleaningSession::ExportPostingStats() {
  const PostingIndexStats& s = posting_index_->stats();
  metrics_.posting_hits = s.hits;
  metrics_.posting_misses = s.misses;
  metrics_.posting_delta_rows = s.delta_rows;
  metrics_.posting_evictions = s.evictions;
  metrics_.posting_scan_ms = s.scan_ms;
  metrics_.posting_delta_ms = s.delta_ms;
  // Running totals, so this costs O(1) on every step exit: the same values
  // PostingIndex::StorageStats() would get by walking every entry.
  PostingStorageStats storage;
  storage.entries = posting_index_->cached_entries();
  storage.resident_bytes = posting_index_->cached_bytes() -
                           PostingIndex::kEntryOverheadBytes * storage.entries;
  storage.dense_bytes = storage.entries *
                        ((dirty_->num_rows() + 63) / 64) * sizeof(uint64_t);
  metrics_.posting_entries = storage.entries;
  metrics_.posting_resident_bytes = storage.resident_bytes;
  metrics_.posting_dense_bytes = storage.dense_bytes;
  metrics_.posting_compression = storage.compression();
}

Status CleaningSession::Start(bool fresh) {
  if (clean_->num_rows() != dirty_->num_rows() ||
      clean_->num_cols() != dirty_->num_cols()) {
    return Status::InvalidArgument("clean/dirty shape mismatch");
  }
  if (clean_->pool() != dirty_->pool()) {
    return Status::InvalidArgument(
        "clean and dirty tables must share a ValuePool");
  }

  metrics_ = SessionMetrics{};
  log_.Clear();
  worklist_.clear();
  wrong_updated_.clear();
  append_ingest_ms_ = 0.0;
  finished_ = false;
  // One blocked pass over both tables lists every dirty cell in (row, col)
  // order, the row-major worklist order.
  std::vector<std::pair<uint32_t, uint32_t>> dirty_cells;
  dirty_->ForEachDiffCell(*clean_, [&](size_t r, size_t c) {
    dirty_cells.emplace_back(static_cast<uint32_t>(r),
                             static_cast<uint32_t>(c));
  });
  metrics_.initial_errors = dirty_cells.size();
  max_updates_ = options_.max_updates != 0
                     ? options_.max_updates
                     : metrics_.initial_errors * 10 + 100;

  // Worklist of candidate dirty cells; entries are validated when popped
  // (an applied rule may have fixed them meanwhile). Applied rules append
  // any cells they leave or make dirty.
  //
  // In the default mode the simulated user knows every dirty cell (the
  // paper's setup: "we keep running an algorithm until all the introduced
  // errors are fixed"). In detector-driven mode the user only sees what
  // the FD-violation detector flags, re-detecting after each drained
  // batch.
  if (options_.detector_driven) {
    RefillFromDetector();
  } else {
    worklist_.assign(dirty_cells.begin(), dirty_cells.end());
  }

  // Profile once over the (initial) dirty instance, as the paper does.
  // Recovery rolls the table back before calling Start, so replayed runs
  // profile the same instance the crashed run did.
  CorrelationOptions cords_options;
  cords_options.max_sample_rows = options_.profile_sample_rows;
  profiler_ = std::make_unique<CordsProfiler>(dirty_, cords_options);

  // The oracle: an externally-owned one when the caller (service layer)
  // provides it, else a simulated human, optionally fronted by master data
  // (Appendix B) that answers covered patterns for free.
  if (options_.oracle != nullptr) {
    master_oracle_ = nullptr;
    oracle_.reset();
  } else if (options_.master != nullptr) {
    if (options_.master->pool() != dirty_->pool()) {
      return Status::InvalidArgument(
          "master relation must share the dirty table's ValuePool");
    }
    auto owned = std::make_unique<MasterBackedOracle>(
        options_.master, dirty_, clean_, options_.question_mistake_prob,
        options_.seed + 1);
    master_oracle_ = owned.get();
    oracle_ = std::move(owned);
  } else {
    master_oracle_ = nullptr;
    oracle_ = std::make_unique<UserOracle>(
        clean_, options_.question_mistake_prob, options_.seed + 1);
  }

  PostingIndexOptions posting_options;
  posting_options.byte_budget = options_.posting_budget_bytes;
  posting_options.compressed = options_.compressed_rowsets;
  posting_index_ = std::make_unique<PostingIndex>(dirty_, posting_options);
  lattice_options_ = options_.lattice;
  if (options_.use_posting_index && !lattice_options_.naive_init) {
    lattice_options_.index = posting_index_.get();
  }

  update_rng_ = Rng(options_.seed + 2);

  if (fresh) {
    replay_.clear();
    replay_pos_ = 0;
    journal_.reset();
    if (!options_.journal_path.empty()) {
      FALCON_ASSIGN_OR_RETURN(
          SessionJournal journal,
          SessionJournal::Open(options_.journal_path, /*truncate=*/true));
      journal_ = std::make_unique<SessionJournal>(std::move(journal));
      JournalRecord start;
      start.kind = JournalRecord::Kind::kStart;
      start.seed = options_.seed;
      start.num_rows = dirty_->num_rows();
      start.num_cols = dirty_->num_cols();
      start.table_crc = TableContentsCrc(*dirty_);
      // The header must be durable before any interaction happens, or a
      // crash would leave a journal that cannot anchor recovery.
      FALCON_RETURN_IF_ERROR(journal_->Checkpoint(start));
    }
  }
  started_ = true;
  return Status::Ok();
}

Status CleaningSession::Emit(JournalRecord* r) {
  if (Replaying()) {
    const JournalRecord& want = replay_[replay_pos_];
    if (want.kind != r->kind) {
      return Status::Internal(
          "recovery diverged from journal at record " +
          std::to_string(replay_pos_) + ": replay produced kind " +
          std::to_string(static_cast<int>(r->kind)) + ", journal holds " +
          std::to_string(static_cast<int>(want.kind)));
    }
    if (r->kind == JournalRecord::Kind::kCheckpoint &&
        (want.user_updates != r->user_updates ||
         want.user_answers != r->user_answers ||
         want.cells_repaired != r->cells_repaired ||
         want.queries_applied != r->queries_applied ||
         want.table_crc != r->table_crc)) {
      return Status::Internal(
          "recovery diverged from journal at checkpoint (record " +
          std::to_string(replay_pos_) +
          "): counters or table CRC do not match");
    }
    // The journaled record is authoritative: the caller adopts its fields
    // (oracle verdicts, update targets) so the replayed run reproduces the
    // crashed one bit-for-bit.
    *r = want;
    ++replay_pos_;
    return Status::Ok();
  }
  if (journal_ == nullptr) return Status::Ok();
  // The replayed prefix is already on disk (recovery truncated the torn
  // tail and reopened in append mode), so live records land right after it.
  if (r->kind == JournalRecord::Kind::kCheckpoint) {
    return journal_->Checkpoint(*r);
  }
  return journal_->Append(*r);
}

StatusOr<SessionMetrics> CleaningSession::Run() {
  FALCON_RETURN_IF_ERROR(Start(/*fresh=*/true));
  if (metrics_.initial_errors == 0) {
    metrics_.converged = true;
    finished_ = true;
    return metrics_;
  }
  return MainLoop(/*max_episodes=*/0);
}

StatusOr<SessionMetrics> CleaningSession::RunSteps(size_t max_episodes) {
  if (!started_) {
    FALCON_RETURN_IF_ERROR(Start(/*fresh=*/true));
    if (metrics_.initial_errors == 0 && external_updates_.empty()) {
      metrics_.converged = true;
      finished_ = true;
      return metrics_;
    }
  }
  if (finished_ && worklist_.empty() && external_updates_.empty()) {
    return metrics_;
  }
  return MainLoop(max_episodes);
}

Status CleaningSession::SubmitUpdate(uint32_t row, uint32_t col,
                                     std::string value) {
  if (row >= dirty_->num_rows() || col >= dirty_->num_cols()) {
    return Status::OutOfRange(
        "update target (" + std::to_string(row) + ", " + std::to_string(col) +
        ") outside table of " + std::to_string(dirty_->num_rows()) + "x" +
        std::to_string(dirty_->num_cols()));
  }
  external_updates_.push_back({row, col, std::move(value)});
  finished_ = false;
  return Status::Ok();
}

Status CleaningSession::AppendBatch(
    const std::vector<std::vector<ValueId>>& dirty_chunk) {
  if (!started_) {
    return Status::FailedPrecondition("call Run() or RunSteps() first");
  }
  if (journal_ != nullptr || Replaying()) {
    // The journal header anchors recovery to the table shape and CRC at
    // Start(); grown tables cannot be rolled back against it.
    return Status::FailedPrecondition(
        "AppendBatch is not supported on journaled sessions");
  }
  if (dirty_chunk.size() != dirty_->num_cols()) {
    return Status::InvalidArgument(
        "append chunk has " + std::to_string(dirty_chunk.size()) +
        " columns, table has " + std::to_string(dirty_->num_cols()));
  }
  size_t batch = dirty_chunk.empty() ? 0 : dirty_chunk[0].size();
  for (const std::vector<ValueId>& col : dirty_chunk) {
    if (col.size() != batch) {
      return Status::InvalidArgument("append chunk columns differ in length");
    }
  }
  if (clean_->num_rows() != dirty_->num_rows() + batch) {
    return Status::InvalidArgument(
        "clean table must be grown to the target size before AppendBatch "
        "(clean has " + std::to_string(clean_->num_rows()) +
        " rows, dirty would have " +
        std::to_string(dirty_->num_rows() + batch) + ")");
  }
  if (batch == 0) return Status::Ok();

  auto t0 = std::chrono::steady_clock::now();
  size_t old_rows = dirty_->AppendBatch(dirty_chunk);

  // Extend cached state for the new rows — O(batch), never O(table) —
  // or drop it wholesale under the rebuild strawman.
  auto m0 = std::chrono::steady_clock::now();
  if (options_.append_rebuild) {
    posting_index_->InvalidateAll();
  } else {
    posting_index_->ApplyAppend(old_rows);
  }

  // New rows' dirty cells join the worklist (detector-driven sessions
  // instead re-detect over the grown table when the worklist drains).
  size_t new_errors = 0;
  for (size_t r = old_rows; r < dirty_->num_rows(); ++r) {
    for (size_t c = 0; c < dirty_->num_cols(); ++c) {
      if (dirty_->cell(r, c) != clean_->cell(r, c)) {
        ++new_errors;
        if (!options_.detector_driven) {
          worklist_.emplace_back(static_cast<uint32_t>(r),
                                 static_cast<uint32_t>(c));
        }
      }
    }
  }
  metrics_.initial_errors += new_errors;
  if (options_.max_updates == 0) {
    // Re-arm the safety valve for the grown error population.
    max_updates_ = metrics_.initial_errors * 10 + 100;
  }
  if (new_errors > 0 || options_.detector_driven) finished_ = false;

  auto t1 = std::chrono::steady_clock::now();
  metrics_.append_maintain_ms +=
      std::chrono::duration<double, std::milli>(t1 - m0).count();
  append_ingest_ms_ +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  metrics_.rows_appended += batch;
  ++metrics_.append_batches;
  metrics_.ingest_rows_per_s =
      append_ingest_ms_ <= 0.0
          ? 0.0
          : static_cast<double>(metrics_.rows_appended) /
                (append_ingest_ms_ / 1000.0);
  return Status::Ok();
}

StatusOr<SessionMetrics> CleaningSession::Recover() {
  return RecoverImpl(/*stop_after_replay=*/false);
}

StatusOr<SessionMetrics> CleaningSession::RecoverToReplayEnd() {
  return RecoverImpl(/*stop_after_replay=*/true);
}

StatusOr<SessionMetrics> CleaningSession::RecoverImpl(
    bool stop_after_replay) {
  if (options_.journal_path.empty()) {
    return Status::InvalidArgument(
        "Recover() requires options.journal_path");
  }
  // Fresh-start path shared by "no journal" and "no durable header": in
  // replay-only (service) mode the session is started but not stepped —
  // the client drives it; otherwise this is a plain Run().
  auto fresh_start = [this,
                      stop_after_replay]() -> StatusOr<SessionMetrics> {
    if (!stop_after_replay) return Run();
    FALCON_RETURN_IF_ERROR(Start(/*fresh=*/true));
    if (metrics_.initial_errors == 0) {
      metrics_.converged = true;
      finished_ = true;
    }
    return metrics_;
  };
  auto contents_or = SessionJournal::Read(options_.journal_path);
  if (!contents_or.ok()) {
    // No journal on disk: nothing happened before the crash.
    if (contents_or.status().code() == StatusCode::kNotFound) {
      return fresh_start();
    }
    return contents_or.status();
  }
  JournalContents contents = std::move(contents_or).value();
  if (contents.records.empty() ||
      contents.records[0].kind != JournalRecord::Kind::kStart) {
    // The header never became durable — the crash predates any
    // interaction, so the table is untouched and a fresh start is correct.
    return fresh_start();
  }
  const JournalRecord& start = contents.records[0];
  if (start.seed != options_.seed ||
      start.num_rows != dirty_->num_rows() ||
      start.num_cols != dirty_->num_cols()) {
    return Status::FailedPrecondition(
        "journal at " + options_.journal_path +
        " belongs to a different session (seed or table shape mismatch)");
  }
  if (contents.torn) {
    FALCON_RETURN_IF_ERROR(SessionJournal::TruncateTo(options_.journal_path,
                                                      contents.valid_bytes));
  }

  // Roll the crashed table back to the session's initial instance:
  // restore before-images newest-first. Write-ahead ordering makes this
  // sound — a record whose table writes never (or only partially) executed
  // undoes as a no-op, since unwritten cells still hold their
  // before-images. kRetract records carry the pre-undo values, so the same
  // reverse walk covers them.
  for (size_t i = contents.records.size(); i-- > 1;) {
    const JournalRecord& r = contents.records[i];
    if (r.kind != JournalRecord::Kind::kApply &&
        r.kind != JournalRecord::Kind::kRetract) {
      continue;
    }
    if (r.col >= dirty_->num_cols()) {
      return Status::Internal("journal before-image column out of range");
    }
    for (auto it = r.before.rbegin(); it != r.before.rend(); ++it) {
      if (it->first >= dirty_->num_rows()) {
        return Status::Internal("journal before-image row out of range");
      }
      dirty_->set_cell(it->first, r.col, dirty_->pool()->Intern(it->second));
    }
  }
  if (TableContentsCrc(*dirty_) != start.table_crc) {
    return Status::Internal(
        "rolled-back table does not match the journal's initial CRC; "
        "the table was modified outside the journaled session");
  }

  FALCON_ASSIGN_OR_RETURN(
      SessionJournal journal,
      SessionJournal::Open(options_.journal_path, /*truncate=*/false));
  journal_ = std::make_unique<SessionJournal>(std::move(journal));
  replay_ = std::move(contents.records);
  replay_pos_ = 1;  // Past the kStart header.
  FALCON_RETURN_IF_ERROR(Start(/*fresh=*/false));
  if (metrics_.initial_errors == 0) {
    metrics_.converged = true;
    finished_ = true;
    return metrics_;
  }
  stop_after_replay_ = stop_after_replay;
  return MainLoop(/*max_episodes=*/0);
}

StatusOr<SessionMetrics> CleaningSession::Continue() {
  if (!started_) {
    return Status::FailedPrecondition("call Run() or Recover() first");
  }
  return MainLoop(/*max_episodes=*/0);
}

Status CleaningSession::RetractRule(size_t i) {
  if (!started_) {
    return Status::FailedPrecondition("call Run() or Recover() first");
  }
  // Check before journaling: a refused retraction must leave no trace in
  // the journal (and no table change), or replay would diverge.
  FALCON_RETURN_IF_ERROR(log_.CanUndo(i));
  const RepairLog::Entry& e = log_.entries()[i];
  const size_t col = e.col;

  JournalRecord rec;
  rec.kind = JournalRecord::Kind::kRetract;
  rec.entry = i;
  rec.col = static_cast<uint32_t>(col);
  // Pre-undo cell values: recovery's reverse rollback restores these to
  // undo the retraction the same way it undoes an applied rule.
  std::vector<std::pair<uint32_t, bool>> was_clean;
  was_clean.reserve(e.before.size());
  dirty_->pool()->WithTexts([&](const ValuePool::Texts& texts) {
    for (const auto& [row, value] : e.before) {
      rec.before.emplace_back(row, std::string(texts[dirty_->cell(row, col)]));
      was_clean.emplace_back(row,
                             dirty_->cell(row, col) == clean_->cell(row, col));
    }
  });
  FALCON_RETURN_IF_ERROR(Emit(&rec));

  FALCON_RETURN_IF_ERROR(log_.Undo(i, *dirty_, posting_index_.get()));

  // Re-pose every re-dirtied cell and keep cells_repaired truthful: a
  // retraction can un-repair cells (the rule was right after all) or
  // repair them (the rule had clobbered clean values).
  for (const auto& [row, clean_before] : was_clean) {
    bool clean_after = dirty_->cell(row, col) == clean_->cell(row, col);
    if (clean_before && !clean_after && metrics_.cells_repaired > 0) {
      --metrics_.cells_repaired;
    } else if (!clean_before && clean_after) {
      ++metrics_.cells_repaired;
    }
    if (!clean_after) worklist_.emplace_back(row, static_cast<uint32_t>(col));
  }
  finished_ = false;  // The retraction re-opened the cleaning loop.
  return Status::Ok();
}

StatusOr<SessionMetrics> CleaningSession::MainLoop(size_t max_episodes) {
  auto on_apply = [this](const RowSet& changed, size_t col) {
    // The lattice already patched the cached postings while it held the
    // before-images.
    changed.ForEach([&](size_t r) {
      if (dirty_->cell(r, col) != clean_->cell(r, col)) {
        worklist_.emplace_back(static_cast<uint32_t>(r),
                               static_cast<uint32_t>(col));
      } else {
        ++metrics_.cells_repaired;
      }
    });
  };

  size_t episodes = 0;
  while (true) {
    if (max_episodes != 0 && episodes == max_episodes) {
      // Episode-bounded (service step) exit: the session stays live;
      // finished_ remains false and the next RunSteps resumes here.
      ExportPostingStats();
      return metrics_;
    }
    if (stop_after_replay_ && !Replaying()) {
      // Daemon-restart recovery: the journaled prefix is fully replayed
      // (any episode the crash interrupted has been completed
      // deterministically). Hand control back to the stepping client
      // instead of running to convergence — unless the replay already
      // reached the natural end, in which case fall through to the
      // finished/converged accounting below.
      stop_after_replay_ = false;
      if (!(worklist_.empty() && external_updates_.empty() &&
            !options_.detector_driven)) {
        ExportPostingStats();
        return metrics_;
      }
      break;
    }
    if (Replaying() &&
        replay_[replay_pos_].kind == JournalRecord::Kind::kRetract) {
      // The crashed session retracted a rule here; re-execute it so the
      // repair log and worklist line up with the records that follow.
      FALCON_RETURN_IF_ERROR(
          RetractRule(static_cast<size_t>(replay_[replay_pos_].entry)));
      continue;
    }
    uint32_t row = 0;
    uint32_t col = 0;
    bool external = false;
    std::string external_value;
    if (!Replaying() && !external_updates_.empty()) {
      // A client-submitted update takes the next episode. (Replay never
      // consumes this queue: journaled kUserUpdate records are
      // authoritative and carry the submitted target below.)
      ExternalUpdate& e = external_updates_.front();
      row = e.row;
      col = e.col;
      external_value = std::move(e.value);
      external_updates_.pop_front();
      external = true;
    } else {
      if (worklist_.empty()) {
        // Detector-driven mode: examine the data again; every popped cell
        // was repaired, so detection converges (each pass removes dirt).
        if (!options_.detector_driven || RefillFromDetector() == 0) break;
      }
      auto [r, c] = worklist_.front();
      worklist_.pop_front();
      row = r;
      col = c;
      if (dirty_->cell(row, col) == clean_->cell(row, col)) continue;
    }
    ++episodes;

    // Fault site: a crash between user-update episodes.
    FALCON_RETURN_IF_ERROR(FaultInjector::Global().Hit("session.update"));

    // ① The user repairs this cell.
    ++metrics_.user_updates;
    if (metrics_.user_updates > max_updates_) {
      metrics_.converged = false;
      if (options_.max_updates == 0) {
        // The safety valve fired without an explicit cap: something is
        // wrong (e.g. a mistake storm). An explicit cap is a deliberate
        // partial run (scalability benchmarks) and stops silently.
        FALCON_LOG(Warning) << "session aborted after " << max_updates_
                            << " user updates (mistake storm?)";
      }
      --metrics_.user_updates;
      finished_ = true;
      ExportPostingStats();
      return metrics_;
    }

    std::string target;
    bool wrong = false;
    if (external) {
      target = std::move(external_value);
    } else {
      target = std::string(clean_->pool()->Get(clean_->cell(row, col)));
      uint64_t cell_key = (static_cast<uint64_t>(row) << 16) | col;
      if (options_.update_mistake_prob > 0.0 &&
          !wrong_updated_.count(cell_key) &&
          update_rng_.NextBool(options_.update_mistake_prob)) {
        // Exp-5 case (i): a wrong update. Every generalization is invalid,
        // the cell stays dirty, and the user revisits it later. The RNG
        // draw happens in replay too (stream alignment); the journaled
        // record then overrides the outcome.
        wrong = true;
      }
    }
    JournalRecord update_rec;
    update_rec.kind = JournalRecord::Kind::kUserUpdate;
    update_rec.row = row;
    update_rec.col = col;
    update_rec.value = wrong ? target + "_oops" : target;
    update_rec.wrong = wrong;
    FALCON_RETURN_IF_ERROR(Emit(&update_rec));
    // The journaled record is authoritative under replay — including the
    // target cell, which a live run may have taken from the external queue.
    row = update_rec.row;
    col = update_rec.col;
    target = update_rec.value;
    if (update_rec.wrong) {
      wrong_updated_.insert((static_cast<uint64_t>(row) << 16) | col);
      worklist_.emplace_back(row, col);
    }
    Repair repair{row, col, target};

    // ② Build the (partial) lattice and let the algorithm interact.
    std::vector<size_t> candidates =
        profiler_->TopKAttributes(col, options_.lattice_attrs - 1);
    auto t0 = std::chrono::steady_clock::now();
    FALCON_ASSIGN_OR_RETURN(
        Lattice lattice,
        Lattice::Build(*dirty_, repair, candidates, lattice_options_));
    auto t1 = std::chrono::steady_clock::now();
    metrics_.lattice_build_ms +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    ++metrics_.lattices_built;

    // D1: the most specific query (this tuple only) is valid a priori.
    lattice.MarkValid(lattice.top());

    SearchStats stats;
    LatticeSearchContext ctx(&lattice, dirty_, ActiveOracle(),
                             options_.budget, options_.use_closed_sets,
                             options_.naive_maintenance, profiler_.get(),
                             &stats, on_apply);
    ctx.set_tuning(options_.tuning);
    ctx.set_repair_log(&log_);
    if (options_.use_rule_history) ctx.set_rule_history(&history_);
    if (journal_ != nullptr || Replaying()) {
      ctx.set_journal_hook([this](JournalRecord* r) { return Emit(r); });
    }
    algorithm_->OnSessionStart(metrics_.user_updates - 1);
    algorithm_->Run(ctx);
    metrics_.user_answers += ctx.answers_used();
    metrics_.queries_applied += stats.applies;
    metrics_.lattice_maintain_ms += stats.maintain_ms;
    Lattice::LazyStats lazy = lattice.lazy_stats();
    metrics_.nodes_materialized += lazy.nodes_materialized;
    metrics_.nodes_total += lattice.num_nodes();
    // An injected fault, journal I/O failure, or oracle outage latched
    // into the context quenches the episode; surface it instead of
    // continuing on inconsistent state.
    FALCON_RETURN_IF_ERROR(ctx.status());

    // ③ If nothing the user validated covered this cell, the user's manual
    // fix takes effect as a plain cell write. (Not a query application:
    // even the most specific query could spill onto a duplicate tuple with
    // a different clean value — e.g. key-attribute repairs under the
    // Appendix-B variant.)
    if (dirty_->cell(row, col) != lattice.target_value()) {
      ValueId old_value = dirty_->cell(row, col);
      if (journal_ != nullptr || Replaying()) {
        // Write-ahead: the manual fix's record (with its before-image)
        // lands before the cell write.
        JournalRecord rec;
        rec.kind = JournalRecord::Kind::kApply;
        rec.row = row;
        rec.col = col;
        rec.node = static_cast<uint32_t>(lattice.top());
        rec.manual = true;
        rec.value = target;
        rec.before.emplace_back(
            row, std::string(dirty_->pool()->Get(old_value)));
        FALCON_RETURN_IF_ERROR(Emit(&rec));
      }
      FALCON_RETURN_IF_ERROR(FaultInjector::Global().Hit("manual.write"));
      log_.Record(lattice.NodeQuery(lattice.top()), col, {{row, old_value}},
                  /*manual=*/true);
      dirty_->set_cell(row, col, lattice.target_value());
      posting_index_->ApplyCellDelta(col, row, old_value,
                                     lattice.target_value());
      if (dirty_->cell(row, col) == clean_->cell(row, col)) {
        ++metrics_.cells_repaired;
      } else {
        worklist_.emplace_back(row, col);  // Wrong update; revisit.
      }
    }

    // Episode checkpoint: counters + full-table CRC, fsynced. During
    // replay this is the divergence detector instead.
    if (journal_ != nullptr || Replaying()) {
      JournalRecord cp;
      cp.kind = JournalRecord::Kind::kCheckpoint;
      cp.user_updates = metrics_.user_updates;
      cp.user_answers = metrics_.user_answers;
      cp.cells_repaired = metrics_.cells_repaired;
      cp.queries_applied = metrics_.queries_applied;
      cp.table_crc = TableContentsCrc(*dirty_);
      FALCON_RETURN_IF_ERROR(Emit(&cp));
    }
    // The lattice (and its borrowed posting references) is gone at the end
    // of the episode; now is the safe point to enforce the byte budget.
    posting_index_->Trim();
  }

  if (master_oracle_ != nullptr) {
    metrics_.master_answers = master_oracle_->master_answers();
  }
  finished_ = true;
  ExportPostingStats();
  metrics_.converged = dirty_->CountDiffCells(*clean_) == 0;
  return metrics_;
}

StatusOr<SessionMetrics> RunCleaning(const Table& clean, const Table& dirty,
                                     SearchKind kind,
                                     const SessionOptions& options) {
  Table working = dirty.Clone();
  std::unique_ptr<SearchAlgorithm> algorithm = MakeSearchAlgorithm(kind);
  CleaningSession session(&clean, &working, algorithm.get(), options);
  return session.Run();
}

}  // namespace falcon
