// Figure 8 at scale: the interactive data path on 1M–10M+ row tables.
//
// The paper's Fig. 8 measures lattice creation/maintenance as tables grow;
// this bench extends it to the streaming regime those numbers imply:
//
//  (1) chunked parallel ingest from a declarative JSON workload spec, with
//      a bit-identity sweep proving the generated table is byte-identical
//      (TableContentsCrc) for every (thread count, chunk size) pairing;
//  (2) deterministic sharded posting-index builds — parallel BuildColumn
//      digest-identical to the serial build at every thread count;
//  (3) append-vs-rebuild A/B: growing a warm posting index by
//      PostingIndex::ApplyAppend (O(batch + entries)) against the
//      invalidate-and-rebuild strawman (O(table)), digest-verified;
//  (4) twin cleaning sessions fed the same append schedule through
//      CleaningSession::AppendBatch — incremental maintenance vs
//      options.append_rebuild — which must converge to CRC-identical
//      tables with identical interaction metrics;
//  (5) per-update latency across table sizes (the Fig. 8(b,c) axis): the
//      median over repeated incremental sessions of lattice build +
//      maintain time per lattice, with its spread. A session's first
//      lattice over a column pays that column's whole posting build.
//
// Each size also records peak_rss_mb, the process's resident high-water
// mark (getrusage) after that size's phases: the generator, the posting
// builds and the sessions, lattice nodes included. --posting_builds=false
// skips phases (2)-(3).
//
// Emits BENCH_fig8_scalability.json; exit code 1 if any identity gate
// (generator determinism, posting digest, twin CRC/metrics) fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench_util.h"

#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "core/session_journal.h"
#include "datagen/spec.h"
#include "relational/posting_index.h"

using namespace falcon;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Peak resident set of this process so far, in MiB (ru_maxrss is KiB).
double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// The default workload spec, parameterized by table size. Domains scale
// with the row count so predicate groups keep a realistic ~2k-row size
// (Hospital-like selectivity) instead of degenerating as tables grow; the
// derived fields give the injector exact FDs to corrupt.
std::string DefaultSpecJson(size_t rows, size_t append_batches,
                            size_t batch_rows) {
  size_t city_domain = std::max<size_t>(rows / 2000, 8);
  size_t zip_domain = std::max<size_t>(rows / 2000, 8);
  std::ostringstream os;
  os << "{\n"
     << "  \"name\": \"fig8\", \"seed\": 9, \"rows\": " << rows << ",\n"
     << "  \"fields\": [\n"
     << "    {\"name\": \"id\", \"dist\": \"unique\", \"prefix\": \"R\"},\n"
     << "    {\"name\": \"city\", \"dist\": \"zipf\", \"domain\": "
     << city_domain << ", \"skew\": 1.0, \"prefix\": \"City\"},\n"
     << "    {\"name\": \"state\", \"dist\": \"derived\", \"parents\": "
        "[\"city\"], \"domain\": "
     << std::max<size_t>(city_domain / 10, 4) << ", \"prefix\": \"St\"},\n"
     << "    {\"name\": \"zip\", \"dist\": \"uniform\", \"domain\": "
     << zip_domain << ", \"prefix\": \"Z\"},\n"
     << "    {\"name\": \"area\", \"dist\": \"derived\", \"parents\": "
        "[\"zip\"], \"domain\": "
     << std::max<size_t>(zip_domain / 20, 4) << ", \"prefix\": \"A\"},\n"
     << "    {\"name\": \"flag\", \"dist\": \"dictionary\", \"values\": "
        "[\"yes\", \"no\", \"maybe\"]}\n"
     << "  ],\n"
     << "  \"errors\": {\n"
     << "    \"rules\": [{\"lhs\": [\"city\"], \"rhs\": \"state\", "
        "\"patterns\": 5, \"errors_per_pattern\": 20}],\n"
     << "    \"random_errors\": 100, \"seed\": 5\n"
     << "  },\n"
     << "  \"append\": {\"batches\": " << append_batches
     << ", \"rows_per_batch\": " << batch_rows
     << ", \"error_rate\": 0.0005}\n"
     << "}\n";
  return os.str();
}

// Canonical digest of a posting index's cached bitmaps over the bounded
// columns of `table`: (column, decoded value text, row stream) folded into
// FNV — independent of thread count, storage representation, and ValueId
// numbering. Unique-like columns are skipped (one bitmap per row is not a
// lattice-relevant posting).
uint64_t PostingDigest(PostingIndex& index, const Table& table,
                       const std::vector<size_t>& cols) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (size_t c : cols) {
    std::set<ValueId> values(table.column(c).begin(), table.column(c).end());
    for (ValueId v : values) {
      std::string_view text = table.pool()->Get(v);
      mix(c);
      for (char ch : text) mix(static_cast<unsigned char>(ch));
      index.Postings(c, v).ForEach([&](size_t r) { mix(r + 0x9e3779b9ull); });
    }
  }
  return h;
}

// Columns worth full posting builds: everything whose domain is bounded
// (the unique key column would materialize one bitmap per row).
std::vector<size_t> BoundedColumns(const Table& table) {
  std::vector<size_t> cols;
  for (size_t c = 0; c < table.num_cols(); ++c) {
    if (table.DistinctCount(c) < table.num_rows() / 2) cols.push_back(c);
  }
  return cols;
}

struct GenerateLeg {
  size_t threads = 0;
  size_t chunk_rows = 0;
  double ms = 0.0;
  uint64_t crc = 0;
};

// Generates the spec's base table with one (threads, chunk_rows) setting
// and returns its content CRC. A fresh generator (fresh pool) per leg, so
// equality across legs is a real statement about the byte contents.
StatusOr<GenerateLeg> GenerateOnce(const GeneratorSpec& spec, size_t threads,
                                   size_t chunk_rows) {
  GenerateLeg leg;
  leg.threads = threads;
  leg.chunk_rows = chunk_rows;
  ThreadPool pool(threads);
  double t0 = NowMs();
  FALCON_ASSIGN_OR_RETURN(SpecGenerator gen, SpecGenerator::Make(spec));
  Table table = gen.NewTable();
  table.ReserveRows(spec.rows);
  for (size_t done = 0; done < spec.rows;) {
    size_t m = std::min(chunk_rows, spec.rows - done);
    FALCON_ASSIGN_OR_RETURN(auto chunk, gen.Chunk(done, m, &pool));
    table.AppendBatch(chunk);
    done += m;
  }
  leg.ms = NowMs() - t0;
  leg.crc = TableContentsCrc(table);
  return leg;
}

struct SessionLeg {
  SessionMetrics metrics;
  uint64_t crc = 0;
  double total_ms = 0.0;
  bool ok = false;
};

// One twin of the session-level A/B: run `warm_episodes`, stream the
// append schedule through CleaningSession::AppendBatch — growing a private
// COW clone of the clean table in lock-step, per the AppendBatch contract
// — then run `post_episodes` more.
SessionLeg RunAppendSession(const Table& base_clean, const Table& base_dirty,
                            const std::vector<SpecAppendChunk>& chunks,
                            bool append_rebuild, size_t warm_episodes,
                            size_t post_episodes) {
  SessionLeg leg;
  SessionOptions options;
  options.budget = 1000;  // Fig. 8 setting: effectively unbounded B.
  options.append_rebuild = append_rebuild;
  Table clean = base_clean.Clone();
  Table working = base_dirty.Clone();
  std::unique_ptr<SearchAlgorithm> algorithm =
      MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&clean, &working, algorithm.get(), options);
  double t0 = NowMs();
  auto warm = session.RunSteps(warm_episodes);
  if (!warm.ok()) return leg;
  for (const SpecAppendChunk& chunk : chunks) {
    clean.AppendBatch(chunk.clean);
    Status st = session.AppendBatch(chunk.dirty);
    if (!st.ok()) return leg;
  }
  auto post = session.RunSteps(post_episodes);
  if (!post.ok()) return leg;
  leg.total_ms = NowMs() - t0;
  leg.metrics = *post;
  leg.crc = TableContentsCrc(working);
  leg.ok = true;
  return leg;
}

// Sessions per size behind per_update_ms: one run of the lattice path moves
// by 2x on a shared host, so the bench reports the median of several.
constexpr int kLatencySessions = 5;

// Lattice build + maintain time per lattice of one session.
double PerUpdateMs(const SessionMetrics& m) {
  size_t lattices = std::max<size_t>(m.lattices_built, 1);
  return (m.lattice_build_ms + m.lattice_maintain_ms) /
         static_cast<double>(lattices);
}

// Linear-interpolated quantile q of ascending `v` (numpy's default).
double Quantile(const std::vector<double>& v, double q) {
  double pos = q * static_cast<double>(v.size() - 1);
  size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

bool MetricsMatch(const SessionMetrics& a, const SessionMetrics& b) {
  return a.user_updates == b.user_updates &&
         a.user_answers == b.user_answers &&
         a.cells_repaired == b.cells_repaired &&
         a.queries_applied == b.queries_applied &&
         a.initial_errors == b.initial_errors &&
         a.rows_appended == b.rows_appended &&
         a.append_batches == b.append_batches &&
         a.converged == b.converged;
}

// Satellite microbench: per-row cost of the string-vector AppendRow vs the
// span-of-views overload the CSV reader and generators now feed.
JsonValue AppendRowMicrobench(size_t rows) {
  Schema schema({"a", "b", "c", "d"});
  std::vector<std::string> strings = {"alpha_1", "beta_22", "gamma_333",
                                      "delta_4444"};
  std::vector<std::string_view> views(strings.begin(), strings.end());

  Table by_string("by_string", schema);
  double t0 = NowMs();
  for (size_t r = 0; r < rows; ++r) by_string.AppendRow(strings);
  double string_ms = NowMs() - t0;

  Table by_span("by_span", schema);
  t0 = NowMs();
  for (size_t r = 0; r < rows; ++r) {
    by_span.AppendRow(std::span<const std::string_view>(views));
  }
  double span_ms = NowMs() - t0;

  JsonValue out = JsonValue::Object();
  out.Set("rows", rows);
  out.Set("string_ns_per_row", string_ms * 1e6 / static_cast<double>(rows));
  out.Set("span_ns_per_row", span_ms * 1e6 / static_cast<double>(rows));
  return out;
}

std::vector<size_t> ParseSizeList(const std::string& csv, double scale) {
  std::vector<size_t> sizes;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    double v = std::atof(item.c_str()) * scale;
    if (v >= 1.0) sizes.push_back(static_cast<size_t>(v));
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  simd::ApplyLevelFlag(flags);
  double scale = bench::ParseScale(flags);
  bool quick = bench::ParseQuick(flags);
  std::string sizes_csv =
      flags.GetString("sizes", quick ? "1000000" : "1000000,10000000");
  std::string spec_path = flags.GetString("spec", "");
  size_t episodes = static_cast<size_t>(flags.GetInt("episodes", 3));
  bool posting_builds = flags.GetBool(
      "posting_builds", true,
      "run the full posting-build and append-vs-rebuild phases");
  std::string out_path =
      flags.GetString("out", "BENCH_fig8_scalability.json");
  if (auto rc = flags.Done(
          "bench_fig8_scalability — streaming append & large-table ingest "
          "(Fig. 8 at 1M-10M rows)\n"
          "  --sizes=<csv>    table sizes (default 1000000,10000000; "
          "--quick keeps 1M)\n"
          "  --spec=<path>    JSON GeneratorSpec overriding the built-in "
          "workload\n"
          "  --episodes=<n>   episodes before and after the append phase\n"
          "  --posting_builds=<bool>  run phases (2)-(3) (default true)\n"
          "  --out=<path>     output JSON path")) {
    return *rc;
  }
  bench::PrintBanner(
      "bench_fig8_scalability — chunked ingest, deterministic parallel "
      "builds, append-vs-rebuild",
      "Figure 8 at streaming scale");

  std::vector<size_t> sizes = ParseSizeList(sizes_csv, scale);
  bool all_ok = true;

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "fig8_scalability");
  doc.Set("meta", bench::BenchMeta());
  doc.Set("append_row_span", AppendRowMicrobench(200000));
  JsonValue size_results = JsonValue::Array();
  std::vector<std::pair<size_t, double>> per_update;  // (rows, ms/update).

  for (size_t rows : sizes) {
    std::printf("\n=== %zu rows ===\n", rows);
    JsonValue entry = JsonValue::Object();
    entry.Set("rows", rows);

    size_t batch_rows = std::max<size_t>(rows / 20, 1000);
    std::string spec_json;
    if (!spec_path.empty()) {
      std::ifstream in(spec_path);
      std::stringstream buf;
      buf << in.rdbuf();
      spec_json = buf.str();
    } else {
      spec_json = DefaultSpecJson(rows, /*append_batches=*/4, batch_rows);
    }
    auto spec_or = GeneratorSpec::Parse(spec_json);
    if (!spec_or.ok()) {
      std::fprintf(stderr, "spec parse failed: %s\n",
                   spec_or.status().message().c_str());
      return 1;
    }
    GeneratorSpec spec = std::move(spec_or).value();

    // ---- (1) chunked-ingest determinism sweep -----------------------------
    struct LegConfig {
      size_t threads, chunk_rows;
    };
    std::vector<LegConfig> configs = {{1, 1 << 16}, {2, 1 << 16}, {8, 10000}};
    JsonValue legs = JsonValue::Array();
    uint64_t base_crc = 0;
    bool generator_deterministic = true;
    double best_ms = 0.0;
    for (size_t i = 0; i < configs.size(); ++i) {
      auto leg = GenerateOnce(spec, configs[i].threads, configs[i].chunk_rows);
      if (!leg.ok()) {
        std::fprintf(stderr, "generation failed: %s\n",
                     leg.status().message().c_str());
        return 1;
      }
      if (i == 0) {
        base_crc = leg->crc;
        best_ms = leg->ms;
      } else {
        generator_deterministic &= leg->crc == base_crc;
        best_ms = std::min(best_ms, leg->ms);
      }
      JsonValue lj = JsonValue::Object();
      lj.Set("threads", leg->threads);
      lj.Set("chunk_rows", leg->chunk_rows);
      lj.Set("ms", leg->ms);
      lj.Set("crc", static_cast<int64_t>(leg->crc));
      legs.Append(std::move(lj));
      std::printf("ingest: threads=%zu chunk=%zu %.0f ms (crc %016llx)\n",
                  configs[i].threads, configs[i].chunk_rows, leg->ms,
                  static_cast<unsigned long long>(leg->crc));
    }
    JsonValue gen_json = JsonValue::Object();
    gen_json.Set("legs", std::move(legs));
    gen_json.Set("deterministic", generator_deterministic);
    gen_json.Set("ingest_rows_per_s",
                 best_ms > 0.0 ? static_cast<double>(rows) / (best_ms / 1000.0)
                               : 0.0);
    entry.Set("generate", std::move(gen_json));
    all_ok &= generator_deterministic;
    std::printf("generator deterministic across legs: %s\n",
                generator_deterministic ? "yes" : "NO");

    // ---- build the workload used by the remaining phases ------------------
    auto workload_or = MakeSpecWorkload(spec);
    if (!workload_or.ok()) {
      std::fprintf(stderr, "workload build failed: %s\n",
                   workload_or.status().message().c_str());
      return 1;
    }
    SpecWorkload sw = std::move(workload_or).value();
    std::printf("workload: %zu rows, %zu injected errors, %zu patterns\n",
                sw.workload.clean.num_rows(), sw.workload.errors,
                sw.workload.patterns);

    // ---- (2) serial-vs-parallel posting build identity --------------------
    std::vector<size_t> bounded = BoundedColumns(sw.workload.dirty);
    JsonValue build_json = JsonValue::Object();
    if (posting_builds) {
      uint64_t serial_digest = 0;
      bool identical = true;
      double serial_ms = 0.0, parallel_ms = 0.0;
      JsonValue threads_json = JsonValue::Array();
      // Sparse postings as row-id arrays (the session default): at 10M
      // rows a fully built all-dense column set costs gigabytes; the
      // parallel-vs-serial identity claim is form-independent (locked in
      // by PostingBuildTest.CompressedBuildIsBitIdentical).
      PostingIndexOptions posting_opts;
      posting_opts.compressed = true;
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        ThreadPool tp(threads);
        PostingIndex index(&sw.workload.dirty, posting_opts);
        double t0 = NowMs();
        for (size_t c : bounded) index.BuildColumn(c, &tp);
        double ms = NowMs() - t0;
        uint64_t digest = PostingDigest(index, sw.workload.dirty, bounded);
        if (threads == 1) {
          serial_digest = digest;
          serial_ms = ms;
        } else {
          identical &= digest == serial_digest;
          parallel_ms = ms;
        }
        JsonValue tj = JsonValue::Object();
        tj.Set("threads", threads);
        tj.Set("ms", ms);
        tj.Set("digest", static_cast<int64_t>(digest));
        threads_json.Append(std::move(tj));
        std::printf("posting build: threads=%zu %.0f ms digest %016llx\n",
                    threads, ms, static_cast<unsigned long long>(digest));
      }
      build_json.Set("legs", std::move(threads_json));
      build_json.Set("identical", identical);
      build_json.Set("serial_ms", serial_ms);
      build_json.Set("parallel_ms", parallel_ms);
      all_ok &= identical;
      std::printf("parallel build identical to serial: %s\n",
                  identical ? "yes" : "NO");
    }
    if (posting_builds) entry.Set("posting_build", std::move(build_json));

    // ---- pre-generate the append schedule's chunks ------------------------
    std::vector<SpecAppendChunk> chunks;
    size_t appended_errors = 0;
    for (size_t b = 0; b < spec.append.batches; ++b) {
      auto chunk_or = sw.generator.AppendBatchChunk(
          spec.rows + b * spec.append.rows_per_batch,
          spec.append.rows_per_batch);
      if (!chunk_or.ok()) {
        std::fprintf(stderr, "append chunk generation failed\n");
        return 1;
      }
      appended_errors += chunk_or->errors;
      chunks.push_back(std::move(chunk_or).value());
    }

    // ---- (3) append-vs-rebuild A/B over a warm posting index --------------
    if (posting_builds) {
      Table inc_table = sw.workload.dirty.Clone();
      Table reb_table = sw.workload.dirty.Clone();
      PostingIndexOptions posting_opts;
      posting_opts.compressed = true;
      PostingIndex inc_index(&inc_table, posting_opts);
      PostingIndex reb_index(&reb_table, posting_opts);
      for (size_t c : bounded) inc_index.BuildColumn(c);
      for (size_t c : bounded) reb_index.BuildColumn(c);

      double append_ms = 0.0, rebuild_ms = 0.0;
      for (const SpecAppendChunk& chunk : chunks) {
        size_t old_rows = inc_table.num_rows();
        double t0 = NowMs();
        inc_table.AppendBatch(chunk.dirty);
        inc_index.ApplyAppend(old_rows);
        append_ms += NowMs() - t0;

        t0 = NowMs();
        reb_table.AppendBatch(chunk.dirty);
        reb_index.InvalidateAll();
        for (size_t c : bounded) reb_index.BuildColumn(c);
        rebuild_ms += NowMs() - t0;
      }
      uint64_t inc_digest = PostingDigest(inc_index, inc_table, bounded);
      uint64_t reb_digest = PostingDigest(reb_index, reb_table, bounded);
      bool postings_identical = inc_digest == reb_digest;
      double speedup = append_ms > 0.0 ? rebuild_ms / append_ms : 0.0;
      JsonValue ab = JsonValue::Object();
      ab.Set("batches", spec.append.batches);
      ab.Set("batch_rows", spec.append.rows_per_batch);
      ab.Set("append_ms", append_ms);
      ab.Set("rebuild_ms", rebuild_ms);
      ab.Set("speedup", speedup);
      ab.Set("postings_identical", postings_identical);
      entry.Set("append_ab", std::move(ab));
      all_ok &= postings_identical;
      std::printf(
          "append A/B: maintain %.1f ms vs rebuild %.1f ms -> %.1fx, "
          "postings %s\n",
          append_ms, rebuild_ms, speedup,
          postings_identical ? "identical" : "DIVERGED");
    }

    // ---- (4) twin sessions through CleaningSession::AppendBatch -----------
    {
      SessionLeg inc = RunAppendSession(sw.workload.clean, sw.workload.dirty,
                                        chunks, /*append_rebuild=*/false,
                                        episodes, episodes);
      SessionLeg reb = RunAppendSession(sw.workload.clean, sw.workload.dirty,
                                        chunks, /*append_rebuild=*/true,
                                        episodes, episodes);
      bool crc_match = inc.ok && reb.ok && inc.crc == reb.crc;
      bool metrics_match =
          inc.ok && reb.ok && MetricsMatch(inc.metrics, reb.metrics);
      JsonValue sj = JsonValue::Object();
      sj.Set("ok", inc.ok && reb.ok);
      sj.Set("episodes", episodes * 2);
      sj.Set("crc_match", crc_match);
      sj.Set("metrics_match", metrics_match);
      sj.Set("rows_appended", inc.metrics.rows_appended);
      sj.Set("append_batches", inc.metrics.append_batches);
      sj.Set("appended_errors", appended_errors);
      sj.Set("append_maintain_ms", inc.metrics.append_maintain_ms);
      sj.Set("rebuild_append_maintain_ms", reb.metrics.append_maintain_ms);
      sj.Set("ingest_rows_per_s", inc.metrics.ingest_rows_per_s);
      sj.Set("incremental_total_ms", inc.total_ms);
      sj.Set("rebuild_total_ms", reb.total_ms);
      entry.Set("session_ab", std::move(sj));
      all_ok &= crc_match && metrics_match;
      std::printf(
          "session twins: crc %s, metrics %s, appended %zu rows "
          "(%zu dirty), maintain %.2f ms, total %.0f vs %.0f ms\n",
          crc_match ? "match" : "DIVERGED",
          metrics_match ? "match" : "DIVERGED", inc.metrics.rows_appended,
          appended_errors, inc.metrics.append_maintain_ms, inc.total_ms,
          reb.total_ms);

      // ---- (5) per-update latency -----------------------------------------
      // The incremental twin is the first of kLatencySessions identical
      // sessions; the rest repeat it for the median.
      std::vector<double> runs = {PerUpdateMs(inc.metrics)};
      bool repeats_ok = inc.ok;
      for (int i = 1; i < kLatencySessions; ++i) {
        SessionLeg again = RunAppendSession(
            sw.workload.clean, sw.workload.dirty, chunks,
            /*append_rebuild=*/false, episodes, episodes);
        repeats_ok &= again.ok && again.crc == inc.crc &&
                      MetricsMatch(again.metrics, inc.metrics);
        runs.push_back(PerUpdateMs(again.metrics));
      }
      all_ok &= repeats_ok;
      JsonValue runs_json = JsonValue::Array();
      for (double ms : runs) runs_json.Append(ms);
      std::sort(runs.begin(), runs.end());
      double per_update_ms = Quantile(runs, 0.5);
      double q1 = Quantile(runs, 0.25), q3 = Quantile(runs, 0.75);
      JsonValue pu = JsonValue::Object();
      pu.Set("sessions", kLatencySessions);
      pu.Set("lattices_per_session", inc.metrics.lattices_built);
      pu.Set("runs_ms", std::move(runs_json));
      pu.Set("q1_ms", q1);
      pu.Set("q3_ms", q3);
      pu.Set("iqr_share", per_update_ms > 0.0 ? (q3 - q1) / per_update_ms
                                              : 0.0);
      pu.Set("repeats_identical", repeats_ok);
      entry.Set("per_update_ms", per_update_ms);
      entry.Set("per_update", std::move(pu));
      per_update.emplace_back(rows, per_update_ms);
      std::printf(
          "per-update lattice time: median %.2f ms (IQR %.2f-%.2f) over %d "
          "sessions of %zu lattices; repeats %s\n",
          per_update_ms, q1, q3, kLatencySessions,
          inc.metrics.lattices_built, repeats_ok ? "identical" : "DIVERGED");
    }

    entry.Set("peak_rss_mb", PeakRssMb());
    std::printf("peak RSS so far: %.1f MiB\n", PeakRssMb());
    size_results.Append(std::move(entry));
  }
  doc.Set("sizes", std::move(size_results));

  if (per_update.size() >= 2) {
    const auto& [small_rows, small_ms] = per_update.front();
    const auto& [big_rows, big_ms] = per_update.back();
    double ratio = small_ms > 0.0 ? big_ms / small_ms : 0.0;
    JsonValue lr = JsonValue::Object();
    lr.Set("base_rows", small_rows);
    lr.Set("base_ms", small_ms);
    lr.Set("big_rows", big_rows);
    lr.Set("big_ms", big_ms);
    lr.Set("ratio", ratio);
    doc.Set("latency_ratio", std::move(lr));
    std::printf("\nper-update latency %zu -> %zu rows: %.2fx\n", small_rows,
                big_rows, ratio);
  }
  doc.Set("all_gates_pass", all_ok);

  std::ofstream out(out_path);
  out << doc.Serialize() << "\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());
  return all_ok ? 0 : 1;
}
