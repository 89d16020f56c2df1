// Posting-index micro benchmark: delta-maintained cache vs. the legacy
// invalidate-and-rescan mode on the lattice hot path, at Fig-8 scalability
// sizes. Three sections:
//
//  1. Raw scan-kernel throughput (ScanEquals).
//  2. Steady-state hot loop: repeated lattice rebuild + apply on one repair
//     attribute with a warm cache (the regime an interactive session settles
//     into). The index-path time (scan + delta maintenance, measured by the
//     index's own counters) is the headline speedup: invalidation re-scans
//     the repair column on every rebuild, delta maintenance patches bits.
//  3. Full cleaning sessions in delta / invalidate / budgeted-eviction
//     modes: the determinism gate. user_updates / user_answers /
//     cells_repaired / queries_applied must be bit-identical across modes.
//  4. Compressed row-set sweep (--compressed, on by default): container
//     kernel ns/op dense-vs-compressed on sparse and dense operands,
//     posting-storage resident bytes + compression ratio + evictions under
//     a shared byte budget, and a dense-vs-compressed session A/B whose
//     final-table CRCs must match bit-for-bit.
//  5. Build scaling: BuildColumn over the bounded-domain columns at N and
//     10N rows (10N = the bench's row count), median of 5 builds each, and
//     a digest of the built postings (rows, representation, bytes) against
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
#include "common/compressed_row_set.h"
#include "core/lattice.h"
#include "core/session.h"
#include "core/session_journal.h"
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

// --- Compressed row-set sweep ----------------------------------------------

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct KernelPair {
  double dense_ns = 0;  // ns per AndCount on the dense representation.
  double comp_ns = 0;   // ns per AndCount on the compressed representation.
};

// Times AndCount over the same logical operands in both representations.
// `sink` defeats dead-code elimination.
KernelPair TimeAndCount(const RowSet& a, const RowSet& b, size_t reps,
                        size_t* sink) {
  CompressedRowSet ca = CompressedRowSet::FromDense(a);
  CompressedRowSet cb = CompressedRowSet::FromDense(b);
  ca.RunOptimize();
  cb.RunOptimize();
  KernelPair r;
  double t0 = NowNs();
  for (size_t i = 0; i < reps; ++i) *sink += a.AndCount(b);
  r.dense_ns = (NowNs() - t0) / static_cast<double>(reps);
  t0 = NowNs();
  for (size_t i = 0; i < reps; ++i) *sink += ca.AndCount(cb);
  r.comp_ns = (NowNs() - t0) / static_cast<double>(reps);
  return r;
}

struct StorageSweep {
  size_t entries = 0;
  size_t dense_resident = 0;  // Resident bytes, dense index.
  size_t comp_resident = 0;   // Resident bytes, compressed index.
  double ratio = 0;           // dense_resident / comp_resident.
  size_t arrays = 0, bitmaps = 0, runs = 0;
  size_t dense_evictions = 0;  // Under the shared byte budget.
  size_t comp_evictions = 0;
};

// Warms the same posting entries into a dense and a compressed index under
// one shared byte budget, then compares resident bytes and evictions: the
// compressed index should hold the same entries in a fraction of the bytes
// and shed fewer under pressure.
StorageSweep RunStorageSweep(const Table& dirty) {
  // The sparse workload: postings below the compression density threshold
  // (high-cardinality columns — keys, near-keys). Dense-column postings
  // stay flat bitmaps by policy, so they'd measure the policy, not the
  // container encoding.
  std::vector<std::pair<size_t, ValueId>> keys;
  size_t sparse_cap = dirty.num_rows() / 128;
  for (size_t c = 0; c < dirty.num_cols(); ++c) {
    std::vector<ValueId> seen;
    for (size_t r = 0; r < dirty.num_rows() && seen.size() < 8; r += 131) {
      ValueId v = dirty.cell(r, c);
      bool dup = false;
      for (ValueId p : seen) dup |= (p == v);
      if (!dup) {
        seen.push_back(v);
        if (dirty.ScanEquals(c, v).Count() < sparse_cap) keys.push_back({c, v});
      }
    }
  }
  size_t dense_entry = ((dirty.num_rows() + 63) / 64) * 8 + 64;
  PostingIndexOptions dense_opts;
  dense_opts.byte_budget = dense_entry * (keys.size() / 2);  // Pressure.
  PostingIndexOptions comp_opts = dense_opts;
  comp_opts.compressed = true;
  PostingIndex dense(&dirty, dense_opts);
  PostingIndex comp(&dirty, comp_opts);
  for (const auto& [c, v] : keys) {
    dense.Postings(c, v);
    comp.Postings(c, v);
  }
  dense.Trim();
  comp.Trim();
  StorageSweep s;
  s.entries = keys.size();
  PostingStorageStats ds = dense.StorageStats();
  PostingStorageStats cs = comp.StorageStats();
  s.dense_resident = ds.resident_bytes;
  s.comp_resident = cs.resident_bytes;
  // Compare per-entry cost (survivor counts differ under the budget).
  double dense_per = ds.entries ? static_cast<double>(ds.resident_bytes) /
                                      static_cast<double>(ds.entries)
                                : 0;
  double comp_per = cs.entries ? static_cast<double>(cs.resident_bytes) /
                                     static_cast<double>(cs.entries)
                               : 0;
  s.ratio = comp_per > 0 ? dense_per / comp_per : 0;
  s.arrays = cs.array_containers;
  s.bitmaps = cs.bitmap_containers;
  s.runs = cs.run_containers;
  s.dense_evictions = dense.stats().evictions;
  s.comp_evictions = comp.stats().evictions;
  return s;
}

// Per-primitive ns/op for the dispatched container kernels, measured at
// whatever tier --simd_level / FALCON_SIMD_LEVEL resolved to. Word loops
// run over one full container (kWordsPerChunk = 1024 words); array kernels
// over max-cardinality array containers in both the balanced (vector
// merge) and skewed (galloping) regimes.
struct PrimitiveTimes {
  double popcount_ns = 0;
  double and_count_ns = 0;
  double and3_count_ns = 0;  // Fused dst = a & b + popcount, one pass.
  double and_ns = 0;
  double andnot_ns = 0;
  double or_ns = 0;
  double intersect_merge_ns = 0;    // 4096 ∩ 4096, balanced.
  double intersect_gallop_ns = 0;   // 64 ∩ 4096, skew ≥ crossover ratio.
  double intersect_count_ns = 0;    // Count-only, balanced.
  double array_bitmap_ns = 0;       // 4096 vals against a full chunk.
};

PrimitiveTimes TimePrimitives(size_t* sink) {
  constexpr size_t kWords = CompressedRowSet::kWordsPerChunk;
  constexpr size_t kCard = CompressedRowSet::kArrayMaxCard;
  std::vector<uint64_t> wa(kWords), wb(kWords), scratch(kWords);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (size_t i = 0; i < kWords; ++i) {
    wa[i] = next();
    wb[i] = next();
  }
  // Sorted unique u16 arrays: balanced pair (every 16th value, offset) and
  // a 64-element small side for the galloping regime.
  std::vector<uint16_t> aa(kCard), ab(kCard), small(64);
  for (size_t i = 0; i < kCard; ++i) {
    aa[i] = static_cast<uint16_t>(i * 16);
    ab[i] = static_cast<uint16_t>(i * 16 + (i % 3 == 0 ? 0 : 8));
  }
  for (size_t i = 0; i < 64; ++i) small[i] = static_cast<uint16_t>(i * 1021);
  std::vector<uint16_t> out(kCard + simd::kIntersectSlack);

  PrimitiveTimes t;
  auto time_it = [&](size_t reps, auto&& body) {
    double t0 = NowNs();
    for (size_t i = 0; i < reps; ++i) body();
    return (NowNs() - t0) / static_cast<double>(reps);
  };
  t.popcount_ns =
      time_it(4000, [&] { *sink += simd::PopcountWords(wa.data(), kWords); });
  t.and_count_ns = time_it(4000, [&] {
    *sink += simd::AndCountWords(wa.data(), wb.data(), kWords);
  });
  t.and3_count_ns = time_it(4000, [&] {
    *sink +=
        simd::And3CountWords(scratch.data(), wa.data(), wb.data(), kWords);
  });
  t.and_ns = time_it(4000, [&] {
    scratch = wa;
    simd::AndWords(scratch.data(), wb.data(), kWords);
    *sink += static_cast<size_t>(scratch[0]);
  });
  t.andnot_ns = time_it(4000, [&] {
    scratch = wa;
    simd::AndNotWords(scratch.data(), wb.data(), kWords);
    *sink += static_cast<size_t>(scratch[0]);
  });
  t.or_ns = time_it(4000, [&] {
    scratch = wa;
    simd::OrWords(scratch.data(), wb.data(), kWords);
    *sink += static_cast<size_t>(scratch[0]);
  });
  t.intersect_merge_ns = time_it(2000, [&] {
    *sink += simd::IntersectU16(aa.data(), kCard, ab.data(), kCard,
                                out.data());
  });
  t.intersect_gallop_ns = time_it(2000, [&] {
    *sink += simd::IntersectU16(small.data(), small.size(), ab.data(), kCard,
                                out.data());
  });
  t.intersect_count_ns = time_it(2000, [&] {
    *sink += simd::IntersectU16Count(aa.data(), kCard, ab.data(), kCard);
  });
  t.array_bitmap_ns = time_it(2000, [&] {
    *sink += simd::ArrayBitmapCount(aa.data(), kCard, wa.data());
  });
  return t;
}

struct AbResult {
  ModeResult run;
  uint32_t crc = 0;
};

// Full cleaning session with an explicit final-table CRC — the cross-
// representation determinism gate.
AbResult RunAb(const std::string& name, const Table& clean,
               const Table& dirty, bool compressed) {
  SessionOptions options;
  options.budget = 1000;
  options.max_updates = 40;
  options.compressed_rowsets = compressed;
  Table work = dirty.Clone();
  auto algorithm = MakeSearchAlgorithm(SearchKind::kDive);
  AbResult r;
  r.run.name = name;
  double t0 = NowMs();
  CleaningSession session(&clean, &work, algorithm.get(), options);
  auto m = session.Run();
  r.run.wall_ms = NowMs() - t0;
  if (m.ok()) r.run.metrics = *m;
  r.crc = TableContentsCrc(work);
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

// Folds one (column, value) posting into `h`: its rows, its
// representation and its measured bytes.
uint64_t MixPosting(uint64_t h, size_t col, ValueId v,
                    const HybridRowSet& rows) {
  h = Fnv(Fnv(h, col), v);
  rows.ForEach([&](size_t r) { h = Fnv(h, r); });
  return Fnv(Fnv(h, rows.compressed()), rows.HeapBytes());
}

struct BuildDigests {
  uint64_t built = 1469598103934665603ull;
  uint64_t scanned = 1469598103934665603ull;
};

// Digests BuildColumn's postings of `cols` and, value by value, what a
// single-value scan plus Compact stores for the same predicate.
BuildDigests DigestBuildAgainstScans(const Table& table,
                                     const std::vector<size_t>& cols) {
  PostingIndexOptions opts = SessionPostingOptions();
  PostingIndex index(&table, opts);
  for (size_t c : cols) index.BuildColumn(c);
  BuildDigests d;
  for (size_t c : cols) {
    std::set<ValueId> values(table.column(c).begin(), table.column(c).end());
    for (ValueId v : values) {
      HybridRowSet want(table.ScanEquals(c, v));
      if (opts.compressed) want.Compact(want.Count());
      d.built = MixPosting(d.built, c, v, index.Postings(c, v));
      d.scanned = MixPosting(d.scanned, c, v, want);
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
  bool compressed_sweep = flags.GetBool(
      "compressed", true, "run the compressed row-set storage/kernel sweep");
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

  // --- Raw kernel throughput ------------------------------------------------
  ValueId probe = dirty.cell(0, 1);
  double k0 = NowMs();
  RowSet single = dirty.ScanEquals(1, probe);
  double scan_ms = NowMs() - k0;
  std::vector<ValueId> probes;
  for (size_t r = 0; r < dirty.num_rows() && probes.size() < 8; r += 97) {
    ValueId v = dirty.cell(r, 1);
    bool seen = false;
    for (ValueId p : probes) seen |= (p == v);
    if (!seen) probes.push_back(v);
  }
  std::printf("kernels: ScanEquals %.3f ms (%zu hits on probe)\n", scan_ms,
              single.Count());

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

  // --- Compressed row-set sweep --------------------------------------------
  KernelPair sparse_kernel, mid_kernel, dense_kernel;
  size_t sparse_card_a = 0, sparse_card_b = 0;
  PrimitiveTimes prim;
  StorageSweep storage;
  AbResult ab_dense, ab_comp;
  bool crc_match = true;
  bool ab_metrics_match = true;
  if (compressed_sweep) {
    // Sparse operands: two real postings well under the index's
    // compression-density bar (count < rows/128 — the storage sweep's
    // definition; we take < rows/256), with a floor of rows/1024 so the
    // kernels do real work in every chunk instead of winning on
    // empty-container skips. These land as small array containers, the
    // regime the decode-free kernels are built for.
    size_t sparse_cap = dirty.num_rows() / 256;
    size_t sparse_floor = dirty.num_rows() / 1024;
    std::vector<RowSet> sparse_ops;
    for (size_t c = 0; c < dirty.num_cols() && sparse_ops.size() < 2; ++c) {
      std::vector<ValueId> seen;
      for (size_t r = 0;
           r < dirty.num_rows() && sparse_ops.size() < 2 && seen.size() < 8;
           r += 131) {
        ValueId v = dirty.cell(r, c);
        bool dup = false;
        for (ValueId p : seen) dup |= (p == v);
        if (dup) continue;
        seen.push_back(v);
        RowSet rows_for_v = dirty.ScanEquals(c, v);
        size_t cnt = rows_for_v.Count();
        if (cnt >= sparse_floor && cnt < sparse_cap) {
          sparse_ops.push_back(std::move(rows_for_v));
        }
      }
    }
    FALCON_CHECK(sparse_ops.size() == 2);
    sparse_card_a = sparse_ops[0].Count();
    sparse_card_b = sparse_ops[1].Count();
    // Mid-density operands (~1% fill): the probe column's postings. Here a
    // flat word loop reads every word but at full SIMD width, while arrays
    // still pay per-element compares — the crossover regime where dense
    // compute wins and compression is a storage-only call.
    RowSet md_a = dirty.ScanEquals(1, probes[0]);
    RowSet md_b = dirty.ScanEquals(1, probes[1 % probes.size()]);
    // Dense operands: ~50% / ~66% synthetic fills (bitmap containers, the
    // regime where compressed must stay within ~1.2x of the flat words).
    RowSet dn_a(dirty.num_rows()), dn_b(dirty.num_rows());
    for (size_t r = 0; r < dirty.num_rows(); r += 2) dn_a.Set(r);
    for (size_t r = 0; r < dirty.num_rows(); ++r) {
      if (r % 3 != 0) dn_b.Set(r);
    }
    size_t sink = 0;
    sparse_kernel = TimeAndCount(sparse_ops[0], sparse_ops[1], 2000, &sink);
    mid_kernel = TimeAndCount(md_a, md_b, 2000, &sink);
    dense_kernel = TimeAndCount(dn_a, dn_b, 200, &sink);
    prim = TimePrimitives(&sink);
    storage = RunStorageSweep(dirty);
    ab_dense = RunAb("ab_dense", clean, dirty, /*compressed=*/false);
    ab_comp = RunAb("ab_compressed", clean, dirty, /*compressed=*/true);
    crc_match = ab_dense.crc == ab_comp.crc;
    ab_metrics_match =
        ab_dense.run.metrics.user_updates == ab_comp.run.metrics.user_updates &&
        ab_dense.run.metrics.user_answers == ab_comp.run.metrics.user_answers &&
        ab_dense.run.metrics.cells_repaired ==
            ab_comp.run.metrics.cells_repaired &&
        ab_dense.run.metrics.queries_applied ==
            ab_comp.run.metrics.queries_applied;

    std::printf("\ncompressed sweep (sink %zu):\n", sink % 2);
    std::printf("  AndCount sparse (%zu∩%zu rows): dense %8.0f ns  "
                "compressed %8.0f ns (%.2fx)\n",
                sparse_card_a, sparse_card_b,
                sparse_kernel.dense_ns, sparse_kernel.comp_ns,
                sparse_kernel.dense_ns /
                    std::max(sparse_kernel.comp_ns, 1e-9));
    std::printf("  AndCount ~1%%:    dense %8.0f ns  compressed %8.0f ns "
                "(crossover regime)\n",
                mid_kernel.dense_ns, mid_kernel.comp_ns);
    std::printf("  AndCount dense:  dense %8.0f ns  compressed %8.0f ns "
                "(compressed/dense %.2fx)\n",
                dense_kernel.dense_ns, dense_kernel.comp_ns,
                dense_kernel.comp_ns / std::max(dense_kernel.dense_ns, 1e-9));
    std::printf("  dispatched primitives (%s tier, ns/op):\n",
                simd::LevelName(simd::ActiveLevel()));
    std::printf("    popcount_words      %9.0f   (1024-word container)\n",
                prim.popcount_ns);
    std::printf("    and_count_words     %9.0f\n", prim.and_count_ns);
    std::printf("    and3_count_words    %9.0f   (fused materialize+count)\n",
                prim.and3_count_ns);
    std::printf("    and_words           %9.0f   (incl. copy-in)\n",
                prim.and_ns);
    std::printf("    andnot_words        %9.0f   (incl. copy-in)\n",
                prim.andnot_ns);
    std::printf("    or_words            %9.0f   (incl. copy-in)\n",
                prim.or_ns);
    std::printf("    intersect_u16       %9.0f   (4096 ∩ 4096, merge)\n",
                prim.intersect_merge_ns);
    std::printf("    intersect_u16       %9.0f   (64 ∩ 4096, gallop)\n",
                prim.intersect_gallop_ns);
    std::printf("    intersect_u16_count %9.0f   (4096 ∩ 4096)\n",
                prim.intersect_count_ns);
    std::printf("    array_bitmap_count  %9.0f   (4096 vals vs chunk)\n",
                prim.array_bitmap_ns);
    std::printf("  storage (%zu warmed entries, shared byte budget):\n",
                storage.entries);
    std::printf("    per-entry bytes dense/compressed: %.1fx  "
                "(resident %zu vs %zu)\n",
                storage.ratio, storage.dense_resident, storage.comp_resident);
    std::printf("    containers: %zu array / %zu bitmap / %zu run\n",
                storage.arrays, storage.bitmaps, storage.runs);
    std::printf("    evictions under budget: dense %zu, compressed %zu\n",
                storage.dense_evictions, storage.comp_evictions);
    std::printf("  session A/B: dense %.1f ms (%zu KiB postings), "
                "compressed %.1f ms (%zu KiB postings, %.1fx)\n",
                ab_dense.run.wall_ms,
                ab_dense.run.metrics.posting_resident_bytes / 1024,
                ab_comp.run.wall_ms,
                ab_comp.run.metrics.posting_resident_bytes / 1024,
                ab_comp.run.metrics.posting_compression);
    std::printf("  final-table CRC match: %s; metrics match: %s\n",
                crc_match ? "yes" : "NO — DETERMINISM BROKEN",
                ab_metrics_match ? "yes" : "NO — DETERMINISM BROKEN");
  }

  FILE* f = std::fopen("BENCH_micro_postings.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"micro_postings\",\n  \"rows\": %zu,\n",
                 rows);
    std::fprintf(f, "  \"meta\": %s,\n",
                 bench::BenchMeta().Serialize().c_str());
    std::fprintf(f,
                 "  \"kernels\": {\"scan_equals_ms\": %.3f},\n", scan_ms);
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
    if (compressed_sweep) {
      std::fprintf(
          f,
          "  \"compressed\": {\n"
          "    \"kernels\": {\"sparse_dense_ns\": %.1f, "
          "\"sparse_comp_ns\": %.1f, \"sparse_card_a\": %zu, "
          "\"sparse_card_b\": %zu, \"mid_dense_ns\": %.1f, "
          "\"mid_comp_ns\": %.1f, \"dense_dense_ns\": %.1f, "
          "\"dense_comp_ns\": %.1f},\n",
          sparse_kernel.dense_ns, sparse_kernel.comp_ns, sparse_card_a,
          sparse_card_b, mid_kernel.dense_ns, mid_kernel.comp_ns,
          dense_kernel.dense_ns, dense_kernel.comp_ns);
      std::fprintf(
          f,
          "    \"primitives\": {\"simd_level\": \"%s\", "
          "\"popcount_words_ns\": %.1f, \"and_count_words_ns\": %.1f, "
          "\"and3_count_words_ns\": %.1f, "
          "\"and_words_ns\": %.1f, \"andnot_words_ns\": %.1f, "
          "\"or_words_ns\": %.1f, \"intersect_merge_ns\": %.1f, "
          "\"intersect_gallop_ns\": %.1f, \"intersect_count_ns\": %.1f, "
          "\"array_bitmap_count_ns\": %.1f},\n",
          simd::LevelName(simd::ActiveLevel()), prim.popcount_ns,
          prim.and_count_ns, prim.and3_count_ns, prim.and_ns, prim.andnot_ns,
          prim.or_ns, prim.intersect_merge_ns, prim.intersect_gallop_ns,
          prim.intersect_count_ns, prim.array_bitmap_ns);
      std::fprintf(
          f,
          "    \"storage\": {\"entries\": %zu, "
          "\"dense_resident_bytes\": %zu, \"comp_resident_bytes\": %zu, "
          "\"per_entry_ratio\": %.2f, \"array_containers\": %zu, "
          "\"bitmap_containers\": %zu, \"run_containers\": %zu, "
          "\"dense_evictions\": %zu, \"comp_evictions\": %zu},\n",
          storage.entries, storage.dense_resident, storage.comp_resident,
          storage.ratio, storage.arrays, storage.bitmaps, storage.runs,
          storage.dense_evictions, storage.comp_evictions);
      std::fprintf(
          f,
          "    \"session_ab\": {\"dense_wall_ms\": %.1f, "
          "\"comp_wall_ms\": %.1f, \"dense_posting_bytes\": %zu, "
          "\"comp_posting_bytes\": %zu, \"comp_compression\": %.2f, "
          "\"crc_match\": %s, \"metrics_match\": %s}\n  },\n",
          ab_dense.run.wall_ms, ab_comp.run.wall_ms,
          ab_dense.run.metrics.posting_resident_bytes,
          ab_comp.run.metrics.posting_resident_bytes,
          ab_comp.run.metrics.posting_compression,
          crc_match ? "true" : "false",
          ab_metrics_match ? "true" : "false");
    }
    std::fprintf(f,
                 "  \"index_speedup\": %.2f,\n"
                 "  \"session_index_speedup\": %.2f,\n"
                 "  \"session_wall_speedup\": %.3f\n}\n",
                 index_speedup, session_index_speedup, wall_speedup);
    std::fclose(f);
    std::printf("wrote BENCH_micro_postings.json\n");
  }
  return (identical && crc_match && ab_metrics_match && build_identical) ? 0
                                                                        : 1;
}
