// Posting-index micro benchmark: delta-maintained cache vs. the legacy
// invalidate-and-rescan mode on the lattice hot path, at Fig-8 scalability
// sizes. Four sections:
//
//  1. Scan-kernel time (ScanEquals): median of warm calls.
//  2. Steady-state hot loop: repeated lattice rebuild + apply on one repair
//     attribute with a warm cache (the regime an interactive session settles
//     into). The index-path time (scan + delta maintenance, measured by the
//     index's own counters) is the headline speedup: invalidation re-scans
//     the repair column on every rebuild, delta maintenance patches bits.
//  3. Full cleaning sessions in delta / invalidate / budgeted-eviction
//     modes: the determinism gate. user_updates / user_answers /
//     cells_repaired / queries_applied must be bit-identical across modes.
//  4. Build scaling: BuildColumn over the bounded-domain columns at N and
//     10N rows (10N = the bench's row count), median of 5 builds each, and
//     a digest of the built postings (rows, form, bytes) against
//     per-value scans, which must match.
//
// All errors are concentrated on one FD target attribute so every episode
// repairs the same column — the workload where cache lifetime matters.
// Emits BENCH_micro_postings.json. Default 1M rows; --quick shrinks to
// 100k for CI smoke, --scale=<f> multiplies the row count.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

#include "common/logging.h"
#include "common/simd.h"
#include "core/lattice.h"
#include "core/session.h"
#include "datagen/datasets.h"
#include "errorgen/injector.h"
#include "relational/posting_index.h"

using namespace falcon;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ModeResult {
  std::string name;
  double wall_ms = 0;
  SessionMetrics metrics;
};

ModeResult RunMode(const std::string& name, const Table& clean,
                   const Table& dirty, bool delta, size_t budget_bytes) {
  SessionOptions options;
  options.budget = 1000;  // Effectively unbounded (Fig. 8 setting).
  options.max_updates = 40;
  options.posting_delta = delta;
  options.posting_budget_bytes = budget_bytes;
  double t0 = NowMs();
  auto m = RunCleaning(clean, dirty, SearchKind::kDive, options);
  ModeResult r;
  r.name = name;
  r.wall_ms = NowMs() - t0;
  if (m.ok()) r.metrics = *m;
  return r;
}

void PrintMode(FILE* f, const ModeResult& r, bool trailing_comma) {
  const SessionMetrics& m = r.metrics;
  std::fprintf(f,
               "    \"%s\": {\"wall_ms\": %.2f, \"posting_scan_ms\": %.3f, "
               "\"posting_delta_ms\": %.3f, \"lattice_build_ms\": %.2f, "
               "\"hits\": %zu, \"misses\": %zu, \"delta_rows\": %zu, "
               "\"evictions\": %zu, \"user_updates\": %zu, "
               "\"user_answers\": %zu, \"cells_repaired\": %zu, "
               "\"queries_applied\": %zu}%s\n",
               r.name.c_str(), r.wall_ms, m.posting_scan_ms,
               m.posting_delta_ms, m.lattice_build_ms, m.posting_hits,
               m.posting_misses, m.posting_delta_rows, m.posting_evictions,
               m.user_updates, m.user_answers, m.cells_repaired,
               m.queries_applied, trailing_comma ? "," : "");
}

double IndexMs(const ModeResult& r) {
  return r.metrics.posting_scan_ms + r.metrics.posting_delta_ms;
}

struct HotLoopResult {
  double index_ms = 0;   // Scan + delta time inside the timed pass.
  double wall_ms = 0;    // Whole timed pass (builds + applies).
  size_t misses = 0;
  size_t delta_rows = 0;
  size_t iters = 0;
};

// Steady-state lattice rebuild + apply loop over one repair attribute.
// Both modes run an untimed warm-up pass over the same cells first, so the
// timed pass measures warm-cache behaviour: with delta maintenance every
// posting request hits and writes cost bit flips; with invalidation every
// write voids the repair column and the next build re-scans it.
HotLoopResult RunHotLoop(const Table& dirty,
                         const std::vector<ErrorCell>& cells, bool delta) {
  Table work = dirty.Clone();
  PostingIndexOptions popt;
  popt.delta_maintenance = delta;
  PostingIndex index(&work, popt);

  // Candidate WHERE columns: a fixed slice excluding the repair column.
  // The unique key column is included, so the top node's affected set is
  // exactly the repaired tuple — each apply writes one cell back clean.
  std::vector<size_t> cols;
  for (size_t c = 0; c < work.num_cols() && cols.size() < 5; ++c) {
    if (c != cells.front().col) cols.push_back(c);
  }
  LatticeOptions lopt;
  lopt.index = &index;

  auto one_pass = [&]() {
    for (const ErrorCell& e : cells) {
      // Re-dirty the cell (a fresh error arriving in the same column).
      ValueId cur = work.cell(e.row, e.col);
      if (cur != e.dirty_value) {
        if (index.delta_maintenance()) {
          index.ApplyCellDelta(e.col, e.row, cur, e.dirty_value);
        } else {
          index.InvalidateColumn(e.col);
        }
        work.set_cell(e.row, e.col, e.dirty_value);
      }
      Repair rep{e.row, e.col,
                 std::string(work.pool()->Get(e.clean_value))};
      auto lat = Lattice::Build(work, rep, cols, lopt);
      if (!lat.ok()) continue;
      lat->ApplyNode(lat->top(), work);
      if (!index.delta_maintenance()) index.InvalidateColumn(e.col);
    }
  };

  one_pass();  // Warm-up (untimed): first-touch misses happen here.
  PostingIndexStats before = index.stats();
  double t0 = NowMs();
  one_pass();
  HotLoopResult r;
  r.wall_ms = NowMs() - t0;
  r.index_ms = (index.stats().scan_ms + index.stats().delta_ms) -
               (before.scan_ms + before.delta_ms);
  r.misses = index.stats().misses - before.misses;
  r.delta_rows = index.stats().delta_rows - before.delta_rows;
  r.iters = cells.size();
  return r;
}

// --- Build scaling ---------------------------------------------------------

constexpr int kBuildRuns = 5;

// Columns a first miss builds whole: at most num_rows/64 distinct values.
std::vector<size_t> BoundedColumns(const Table& table) {
  std::vector<size_t> cols;
  for (size_t c = 0; c < table.num_cols(); ++c) {
    if (table.DistinctCount(c) <= table.num_rows() / 64) cols.push_back(c);
  }
  return cols;
}

PostingIndexOptions SessionPostingOptions() {
  PostingIndexOptions opts;
  opts.compressed = SessionOptions{}.compressed_rowsets;
  return opts;
}

// Median wall time of kBuildRuns BuildColumn passes over `cols`, each into
// a fresh index.
double MedianBuildMs(const Table& table, const std::vector<size_t>& cols) {
  std::vector<double> ms;
  for (int run = 0; run < kBuildRuns; ++run) {
    PostingIndex index(&table, SessionPostingOptions());
    double t0 = NowMs();
    for (size_t c : cols) index.BuildColumn(c);
    ms.push_back(NowMs() - t0);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

uint64_t Fnv(uint64_t h, uint64_t x) { return (h ^ x) * 1099511628211ull; }

// Folds one (column, value) posting into `h`: its rows, its form and its
// payload bytes.
uint64_t MixPosting(uint64_t h, size_t col, ValueId v, const RowSet& rows,
                    bool dense, size_t bytes) {
  h = Fnv(Fnv(h, col), v);
  rows.ForEach([&](size_t r) { h = Fnv(h, r); });
  return Fnv(Fnv(h, dense), bytes);
}

struct BuildDigests {
  uint64_t built = 1469598103934665603ull;
  uint64_t scanned = 1469598103934665603ull;
};

// Digests BuildColumn's postings of `cols` and, value by value, what a
// single-value scan stores for the same predicate under the density rule.
BuildDigests DigestBuildAgainstScans(const Table& table,
                                     const std::vector<size_t>& cols) {
  PostingIndexOptions opts = SessionPostingOptions();
  PostingIndex index(&table, opts);
  for (size_t c : cols) index.BuildColumn(c);
  const size_t n = table.num_rows();
  BuildDigests d;
  for (size_t c : cols) {
    std::set<ValueId> values(table.column(c).begin(), table.column(c).end());
    for (ValueId v : values) {
      const Posting& got = index.Postings(c, v);
      d.built = MixPosting(d.built, c, v, got.ToRowSet(n), got.dense(),
                           got.PayloadBytes());
      RowSet want = table.ScanEquals(c, v);
      size_t count = want.Count();
      bool dense = !opts.compressed || Posting::DenseRule(count, n);
      d.scanned = MixPosting(d.scanned, c, v, want, dense,
                             dense ? want.num_words() * sizeof(uint64_t)
                                   : count * sizeof(uint32_t));
    }
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  simd::ApplyLevelFlag(flags);
  double scale = bench::ParseScale(flags);
  size_t rows = static_cast<size_t>(1000000.0 * scale);
  if (bench::ParseQuick(flags)) rows = 100000;
  if (auto rc = flags.Done("bench_micro_postings — posting-index delta vs rescan microbench")) return *rc;
  bench::PrintBanner(
      "bench_micro_postings — delta-maintained posting index vs rescan",
      "Section 5.1 hot path at Fig-8 scalability sizes");

  auto ds = MakeSynth(rows, 29);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset generation failed\n");
    return 1;
  }
  // Concentrate every error on one FD target (A2,A3 → A6): the session
  // repairs the same attribute episode after episode, which is where cache
  // lifetime across writes decides the index cost.
  ErrorSpec spec;
  spec.seed = 31;
  RuleErrorSpec rule;
  rule.rule.lhs = {"A2", "A3"};
  rule.rule.rhs = "A6";
  rule.num_patterns = 32;
  rule.errors_per_pattern = std::max<size_t>(rows / 2500, 2);
  spec.rule_errors = {rule};
  auto injected = InjectErrors(ds->clean, spec);
  if (!injected.ok()) {
    std::fprintf(stderr, "error injection failed\n");
    return 1;
  }
  const Table& clean = ds->clean;
  const Table& dirty = injected->dirty;
  std::printf("rows=%zu cols=%zu errors=%zu (single repair attribute)\n",
              clean.num_rows(), clean.num_cols(), injected->errors.size());

  // --- Scan kernel -----------------------------------------------------------
  // Median of warm calls: the first calls pay the result bitmap's
  // first-touch page faults, which would hide the kernel tier.
  constexpr int kScanWarmup = 3;
  constexpr int kScanRuns = 25;
  ValueId probe = dirty.cell(0, 1);
  std::vector<double> scan_runs;
  size_t probe_hits = 0;
  for (int i = 0; i < kScanWarmup + kScanRuns; ++i) {
    double k0 = NowMs();
    RowSet single = dirty.ScanEquals(1, probe);
    double ms = NowMs() - k0;
    probe_hits = single.Count();
    if (i >= kScanWarmup) scan_runs.push_back(ms);
  }
  std::sort(scan_runs.begin(), scan_runs.end());
  double scan_ms = scan_runs[scan_runs.size() / 2];
  std::printf("kernels: ScanEquals %.4f ms warm median of %d (%s tier, "
              "%zu hits on probe)\n",
              scan_ms, kScanRuns, simd::LevelName(simd::ActiveLevel()),
              probe_hits);

  // --- Steady-state hot loop ------------------------------------------------
  // One representative error cell per injected pattern group.
  std::vector<ErrorCell> picks;
  int last_pattern = -1;
  for (const ErrorCell& e : injected->errors) {
    if (e.pattern_index != last_pattern) {
      picks.push_back(e);
      last_pattern = e.pattern_index;
    }
  }
  HotLoopResult hot_delta = RunHotLoop(dirty, picks, /*delta=*/true);
  HotLoopResult hot_inval = RunHotLoop(dirty, picks, /*delta=*/false);
  double index_speedup =
      hot_inval.index_ms / std::max(hot_delta.index_ms, 1e-6);
  std::printf(
      "\nsteady-state hot loop (%zu rebuild+apply iterations, warm cache):\n",
      hot_delta.iters);
  std::printf("  delta:      index %8.3f ms  wall %8.1f ms  misses %4zu  "
              "delta_rows %zu\n",
              hot_delta.index_ms, hot_delta.wall_ms, hot_delta.misses,
              hot_delta.delta_rows);
  std::printf("  invalidate: index %8.3f ms  wall %8.1f ms  misses %4zu\n",
              hot_inval.index_ms, hot_inval.wall_ms, hot_inval.misses);
  std::printf("  index-path speedup (invalidate/delta): %.1fx\n",
              index_speedup);

  // --- Session comparison (determinism gate) --------------------------------
  ModeResult delta = RunMode("delta", clean, dirty, true, 0);
  ModeResult inval = RunMode("invalidate", clean, dirty, false, 0);
  // Budgeted run: a deliberately tight cap to exercise LRU eviction while
  // preserving answers (evictions only cost rescans, never correctness).
  ModeResult budget = RunMode("delta_budget", clean, dirty, true,
                              ((rows + 63) / 64) * 8 * 12);

  bool identical = true;
  for (const ModeResult* r : {&inval, &budget}) {
    identical = identical &&
                r->metrics.user_updates == delta.metrics.user_updates &&
                r->metrics.user_answers == delta.metrics.user_answers &&
                r->metrics.cells_repaired == delta.metrics.cells_repaired &&
                r->metrics.queries_applied == delta.metrics.queries_applied;
  }
  double session_index_speedup = IndexMs(inval) / std::max(IndexMs(delta), 1e-6);
  double wall_speedup = inval.wall_ms / std::max(delta.wall_ms, 1e-6);

  std::printf("\n%-13s %9s %11s %10s %6s %7s %10s %7s\n", "mode", "wall(ms)",
              "index(ms)", "build(ms)", "hits", "misses", "deltarows",
              "evict");
  for (const ModeResult* r : {&delta, &inval, &budget}) {
    std::printf("%-13s %9.1f %11.3f %10.1f %6zu %7zu %10zu %7zu\n",
                r->name.c_str(), r->wall_ms, IndexMs(*r),
                r->metrics.lattice_build_ms, r->metrics.posting_hits,
                r->metrics.posting_misses, r->metrics.posting_delta_rows,
                r->metrics.posting_evictions);
  }
  std::printf("\nsession index-path speedup (incl. cold start): %.2fx\n",
              session_index_speedup);
  std::printf("session wall-clock speedup:                    %.2fx\n",
              wall_speedup);
  std::printf("identical session metrics across modes: %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");

  // --- Build scaling --------------------------------------------------------
  auto small_ds = MakeSynth(rows / 10, 29);
  if (!small_ds.ok()) {
    std::fprintf(stderr, "dataset generation failed\n");
    return 1;
  }
  const Table& small = small_ds->clean;
  std::vector<size_t> bounded = BoundedColumns(clean);
  double build_small_ms = MedianBuildMs(small, bounded);
  double build_big_ms = MedianBuildMs(clean, bounded);
  double build_ratio = build_big_ms / std::max(build_small_ms, 1e-6);
  BuildDigests digests = DigestBuildAgainstScans(clean, bounded);
  bool build_identical = digests.built == digests.scanned;
  std::printf("\nbuild scaling (%zu bounded columns, median of %d):\n",
              bounded.size(), kBuildRuns);
  std::printf("  %zu rows %.2f ms, %zu rows %.2f ms: %.2fx\n",
              small.num_rows(), build_small_ms, clean.num_rows(),
              build_big_ms, build_ratio);
  std::printf("  built postings match per-value scans: %s\n",
              build_identical ? "yes" : "NO — BUILD DIVERGED");

  FILE* f = std::fopen("BENCH_micro_postings.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"micro_postings\",\n  \"rows\": %zu,\n",
                 rows);
    std::fprintf(f, "  \"meta\": %s,\n",
                 bench::BenchMeta().Serialize().c_str());
    std::fprintf(f,
                 "  \"kernels\": {\"scan_equals_ms\": %.4f, "
                 "\"scan_runs\": %d, \"simd_level\": \"%s\"},\n",
                 scan_ms, kScanRuns, simd::LevelName(simd::ActiveLevel()));
    std::fprintf(f,
                 "  \"hot_loop\": {\"iters\": %zu, "
                 "\"delta_index_ms\": %.3f, \"invalidate_index_ms\": %.3f, "
                 "\"delta_misses\": %zu, \"invalidate_misses\": %zu, "
                 "\"delta_rows\": %zu},\n",
                 hot_delta.iters, hot_delta.index_ms, hot_inval.index_ms,
                 hot_delta.misses, hot_inval.misses, hot_delta.delta_rows);
    std::fprintf(f, "  \"modes\": {\n");
    PrintMode(f, delta, true);
    PrintMode(f, inval, true);
    PrintMode(f, budget, false);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"identical_metrics\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(f,
                 "  \"build_scaling\": {\"columns\": %zu, \"runs\": %d, "
                 "\"small_rows\": %zu, \"big_rows\": %zu, "
                 "\"small_ms\": %.3f, \"big_ms\": %.3f, \"ratio\": %.3f, "
                 "\"built_digest\": \"%016llx\", "
                 "\"scanned_digest\": \"%016llx\", "
                 "\"digest_identical\": %s},\n",
                 bounded.size(), kBuildRuns, small.num_rows(),
                 clean.num_rows(), build_small_ms, build_big_ms, build_ratio,
                 static_cast<unsigned long long>(digests.built),
                 static_cast<unsigned long long>(digests.scanned),
                 build_identical ? "true" : "false");
    std::fprintf(f,
                 "  \"index_speedup\": %.2f,\n"
                 "  \"session_index_speedup\": %.2f,\n"
                 "  \"session_wall_speedup\": %.3f\n}\n",
                 index_speedup, session_index_speedup, wall_speedup);
    std::fclose(f);
    std::printf("wrote BENCH_micro_postings.json\n");
  }
  return (identical && build_identical) ? 0 : 1;
}
