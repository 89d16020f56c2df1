#include "engine.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/search.h"
#include "core/session_journal.h"
#include "decorators.h"
#include "profiling/correlation.h"
#include "relational/posting_index.h"
#include "trace.h"

namespace perfbench {
namespace {

template <typename F>
double MedianMs(int repeats, F&& f) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    double t0 = NowMs();
    f();
    ms.push_back(NowMs() - t0);
  }
  return Median(std::move(ms));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

SessionOutcome RunEngineSession(const falcon::Table& base_clean,
                                const falcon::Table& base_dirty,
                                const SessionPlan& plan, uint64_t seed,
                                EnginePath path, bool keep_final,
                                RunResult* samples, EngineTotals* totals) {
  SessionOutcome out;
  falcon::Table clean = base_clean.Clone();
  falcon::Table working = base_dirty.Clone();

  falcon::SessionOptions options;
  options.budget = 3;
  options.seed = seed;
  if (path == EnginePath::kReference) {
    options.naive_maintenance = true;
    options.lattice.lazy = false;
    options.use_posting_index = false;
    options.compressed_rowsets = false;
  }
  std::unique_ptr<falcon::SearchAlgorithm> algorithm =
      falcon::MakeSearchAlgorithm(falcon::SearchKind::kCoDive);
  TimedSearch* timed_search = nullptr;
  std::unique_ptr<TimedOracle> timed_oracle;
  if (totals != nullptr) {
    auto wrapped = std::make_unique<TimedSearch>(std::move(algorithm));
    timed_search = wrapped.get();
    algorithm = std::move(wrapped);
    timed_oracle = std::make_unique<TimedOracle>(&clean, seed);
    options.oracle = timed_oracle.get();
  }
  falcon::CleaningSession session(&clean, &working, algorithm.get(),
                                  options);

  double step_sum_ms = 0.0;
  auto step = [&]() -> bool {
    double t0 = 0.0;
    double t1 = 0.0;
    falcon::StatusOr<falcon::SessionMetrics> st =
        falcon::Status::Internal("not run");
    {
      ScopedSpan span("core.session.step");
      t0 = NowMs();
      st = session.RunSteps(1);
      t1 = NowMs();
    }
    if (samples != nullptr) ++samples->attempted;
    if (!st.ok()) {
      out.status = st.status();
      return false;
    }
    ++out.steps;
    step_sum_ms += t1 - t0;
    if (samples != nullptr) samples->step_ms.push_back(t1 - t0);
    return true;
  };

  double start = NowMs();
  double append_ms = 0.0;
  size_t appended = 0;
  bool ok = true;
  for (size_t i = 0; ok && i < plan.warm_steps && !session.finished(); ++i) {
    ok = step();
  }
  if (ok && plan.chunks != nullptr) {
    for (const falcon::SpecAppendChunk& chunk : *plan.chunks) {
      clean.AppendBatch(chunk.clean);
      falcon::Status st = falcon::Status::Ok();
      double a0 = 0.0;
      double a1 = 0.0;
      {
        ScopedSpan span("core.session.append");
        a0 = NowMs();
        st = session.AppendBatch(chunk.dirty);
        a1 = NowMs();
      }
      if (samples != nullptr) ++samples->attempted;
      if (!st.ok()) {
        out.status = st;
        ok = false;
        break;
      }
      append_ms += a1 - a0;
      appended += chunk.dirty.empty() ? 0 : chunk.dirty[0].size();
    }
  }
  while (ok && !session.finished()) ok = step();
  out.wall_ms = NowMs() - start;
  out.metrics = session.metrics();
  if (!ok) return out;

  out.equals_clean = working.num_rows() == clean.num_rows() &&
                     working.CountDiffCells(clean) == 0;
  if (keep_final) out.final_table = std::move(working);
  if (samples != nullptr) {
    samples->rows_appended += appended;
    samples->append_s += append_ms / 1000.0;
  }
  if (totals != nullptr) {
    const falcon::SessionMetrics& m = out.metrics;
    ++totals->sessions;
    totals->steps += out.steps;
    totals->step_ms += step_sum_ms;
    totals->search_ms += timed_search->run_ms();
    totals->search_questions += timed_search->questions();
    totals->oracle_ms += timed_oracle->answer_ms();
    totals->oracle_questions += timed_oracle->answers();
    totals->build_ms += m.lattice_build_ms;
    totals->maintain_ms += m.lattice_maintain_ms;
    totals->scan_ms += m.posting_scan_ms;
    totals->nodes_materialized += m.nodes_materialized;
    totals->nodes_total += m.nodes_total;
    totals->posting_hits += m.posting_hits + m.posting_shared_hits;
    totals->posting_probes += m.posting_hits + m.posting_misses +
                              m.posting_shared_hits + m.posting_shared_misses;
    totals->memo_hits += m.lattice_memo_hits + m.lattice_memo_shared_hits;
    totals->memo_probes += m.lattice_memo_hits + m.lattice_memo_misses +
                           m.lattice_memo_shared_hits;
    totals->memo_admitted += m.lattice_memo_admitted;
    totals->max_posting_resident_bytes = std::max(
        totals->max_posting_resident_bytes, m.posting_resident_bytes);
    totals->append_batches += m.append_batches;
    totals->rows_appended += m.rows_appended;
    totals->append_ms += append_ms;
    totals->append_maintain_ms += m.append_maintain_ms;
  }
  return out;
}

void AddEngineLayers(const EngineTotals& t, RunResult* r) {
  if (t.steps == 0) return;
  double steps = static_cast<double>(t.steps);
  double sessions = static_cast<double>(t.sessions);
  auto& L = r->layer;
  L["relational.posting_scan_ms"] = t.scan_ms / steps;
  L["relational.posting_hit_rate"] =
      Ratio(static_cast<double>(t.posting_hits),
            static_cast<double>(t.posting_probes));
  L["relational.posting_probes"] = static_cast<double>(t.posting_probes) /
                                   sessions;
  L["relational.posting_resident_mb"] =
      static_cast<double>(t.max_posting_resident_bytes) / (1 << 20);
  L["core.lattice.build_ms"] = t.build_ms / steps;
  L["core.lattice.maintain_ms"] = t.maintain_ms / steps;
  L["core.lattice.materialized_frac"] =
      Ratio(static_cast<double>(t.nodes_materialized),
            static_cast<double>(t.nodes_total));
  L["core.lattice.nodes_total"] = static_cast<double>(t.nodes_total) /
                                  sessions;
  L["core.lattice.memo_hit_rate"] = Ratio(
      static_cast<double>(t.memo_hits), static_cast<double>(t.memo_probes));
  L["core.lattice.memo_probes"] = static_cast<double>(t.memo_probes) /
                                  sessions;
  L["core.search.run_ms"] = t.search_ms / steps;
  L["core.search.questions"] = static_cast<double>(t.search_questions) /
                               steps;
  L["core.oracle.answer_ms"] = t.oracle_ms / steps;
  L["core.oracle.questions"] = static_cast<double>(t.oracle_questions) /
                               steps;
  double other = t.step_ms - t.build_ms - t.search_ms;
  L["core.session.other_ms"] = other / steps;
  if (t.append_batches > 0) {
    double batches = static_cast<double>(t.append_batches);
    L["core.session.append_ms"] = t.append_ms / batches;
    L["core.session.append_maintain_ms"] = t.append_maintain_ms / batches;
    L["core.session.append_rows_per_s"] =
        Ratio(static_cast<double>(t.rows_appended), t.append_ms / 1000.0);
  }

  // Shares of step wall time. Lattice build includes the posting scans
  // that fill predicate bitmaps; search includes the oracle and the
  // maintenance of applied repairs; "other" is what the outside view
  // cannot attribute (TopK profiling, the manual write, Trim).
  double scan = t.scan_ms;
  double build_self = std::max(0.0, t.build_ms - scan);
  double search_self =
      std::max(0.0, t.search_ms - t.oracle_ms - t.maintain_ms);
  L["share.relational.posting_scan"] = Ratio(scan, t.step_ms);
  L["share.core.lattice.build"] = Ratio(build_self, t.step_ms);
  L["share.core.lattice.maintain"] = Ratio(t.maintain_ms, t.step_ms);
  L["share.core.search"] = Ratio(search_self, t.step_ms);
  L["share.core.oracle"] = Ratio(t.oracle_ms, t.step_ms);
  L["share.core.session.other"] = Ratio(std::max(0.0, other), t.step_ms);

  r->notes.push_back(
      "cache fit: posting private tier peak " +
      std::to_string(static_cast<double>(t.max_posting_resident_bytes) /
                     (1 << 20)) +
      " MiB against an unbounded budget (fits by construction); "
      "intersection memo budget 8 MiB: resident bytes are not exported by "
      "SessionMetrics, so the fit is judged from its hit rate " +
      std::to_string(Ratio(static_cast<double>(t.memo_hits),
                           static_cast<double>(t.memo_probes))) +
      " over " + std::to_string(t.memo_probes) + " probes and " +
      std::to_string(t.memo_admitted) + " admitted pairs");
}

void AddTableProbes(const falcon::Table& dirty, RunResult* r) {
  ScopedSpan probes("probe");
  r->layer["profiling.topk_cold_ms"] = MedianMs(3, [&] {
    ScopedSpan span("probe.profiling.topk_cold");
    falcon::CorrelationOptions opts;
    opts.max_sample_rows = falcon::SessionOptions{}.profile_sample_rows;
    falcon::CordsProfiler profiler(&dirty, opts);
    size_t k = falcon::SessionOptions{}.lattice_attrs - 1;
    for (size_t c = 0; c < dirty.num_cols(); ++c) {
      profiler.TopKAttributes(c, k);
    }
  });
  // The full posting build over the bounded-domain columns: what lazy
  // scans spread over a session. Near-key columns (those TopK skips) are
  // left out, as PostingIndex::BuildColumn asks: they would materialize one
  // bitmap per row.
  std::vector<size_t> bounded;
  double key_ratio = falcon::CorrelationOptions{}.key_ratio_threshold;
  for (size_t c = 0; c < dirty.num_cols(); ++c) {
    if (static_cast<double>(dirty.DistinctCount(c)) <=
        key_ratio * static_cast<double>(dirty.num_rows())) {
      bounded.push_back(c);
    }
  }
  r->layer["relational.index_build_ms"] = MedianMs(3, [&] {
    ScopedSpan span("probe.relational.index_build");
    falcon::PostingIndexOptions opts;
    opts.compressed = falcon::SessionOptions{}.compressed_rowsets;
    falcon::PostingIndex index(&dirty, opts);
    for (size_t c : bounded) index.BuildColumn(c);
  });
  uint32_t crc = 0;
  r->layer["core.journal.crc_ms"] = MedianMs(3, [&] {
    ScopedSpan span("probe.core.journal.crc");
    crc ^= falcon::TableContentsCrc(dirty);
  });
  (void)crc;
}

void CheckAgainstReference(const char* what, const SessionOutcome& got,
                           const SessionOutcome& want, RunResult* r) {
  ++r->attempted;
  std::string why;
  if (!got.status.ok()) {
    why = "error: " + got.status.ToString();
  } else if (!got.equals_clean || !got.metrics.converged) {
    why = "did not converge to the clean table";
  } else if (got.metrics.user_updates != want.metrics.user_updates ||
             got.metrics.user_answers != want.metrics.user_answers) {
    why = "U/A " + std::to_string(got.metrics.user_updates) + "/" +
          std::to_string(got.metrics.user_answers) + " differ from reference " +
          std::to_string(want.metrics.user_updates) + "/" +
          std::to_string(want.metrics.user_answers);
  }
  if (!why.empty()) r->Fail(std::string(what) + ": " + why);
}

}  // namespace perfbench
