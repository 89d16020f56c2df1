#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.h"
#include "engine.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (BENCHMARK.json
// "end_to_end"); each is nonzero by construction.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"session_s", "s"},
    {"step_p50_ms", "ms"},      {"step_p99_ms", "ms"},
    {"steps_per_s", "1/s"},     {"user_cost", "count"},
    {"peak_rss_mb", "MiB"},
};

// Per-layer metrics (BENCHMARK.json "per_layer"). Times are per analyst
// step unless named otherwise; every ratio is listed next to its base.
constexpr MetricDef kPerLayer[] = {
    {"datagen.build_ms", "ms"},
    {"profiling.topk_cold_ms", "ms"},
    {"relational.posting_scan_ms", "ms"},
    {"relational.posting_hit_rate", "ratio"},
    {"relational.posting_probes", "count"},
    {"relational.posting_resident_mb", "MiB"},
    {"relational.index_build_ms", "ms"},
    {"core.lattice.build_ms", "ms"},
    {"core.lattice.maintain_ms", "ms"},
    {"core.lattice.materialized_frac", "ratio"},
    {"core.lattice.nodes_total", "count"},
    {"core.lattice.memo_hit_rate", "ratio"},
    {"core.lattice.memo_probes", "count"},
    {"core.search.run_ms", "ms"},
    {"core.search.questions", "count"},
    {"core.oracle.answer_ms", "ms"},
    {"core.oracle.questions", "count"},
    {"core.session.other_ms", "ms"},
    {"core.session.append_ms", "ms"},
    {"core.session.append_maintain_ms", "ms"},
    {"core.session.append_rows_per_s", "rows/s"},
    {"core.journal.crc_ms", "ms"},
    {"core.journal.bytes_per_step", "bytes"},
    {"core.shared_cache.hit_rate", "ratio"},
    {"core.shared_cache.probes", "count"},
    {"core.shared_cache.resident_mb", "MiB"},
    {"service.handle_step_ms", "ms"},
    {"service.handle_status_ms", "ms"},
    {"service.status_p50_ms", "ms"},
    {"service.status_p99_ms", "ms"},
    {"service.wait_ms_p50", "ms"},
    {"service.wait_ms_p99", "ms"},
    {"service.response_bytes", "bytes"},
    {"service.rejected", "count"},
    {"share.relational.posting_scan", "ratio"},
    {"share.core.lattice.build", "ratio"},
    {"share.core.lattice.maintain", "ratio"},
    {"share.core.search", "ratio"},
    {"share.core.oracle", "ratio"},
    {"share.core.session.other", "ratio"},
    {"share.service.wait", "ratio"},
    {"share.service.handle", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
};

bool KnownLayerMetric(const std::string& name) {
  for (const MetricDef& d : kPerLayer) {
    if (name == d.name) return true;
  }
  return false;
}

}  // namespace

void RunResult::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p * static_cast<double>(v.size()));
  size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

bool PrintResult(const RunConfig& config, const RunResult& r) {
  std::map<std::string, double> e2e;
  e2e["setup_s"] = Median(r.setup_s);
  e2e["session_s"] = Median(r.session_s);
  e2e["step_p50_ms"] = Percentile(r.step_ms, 0.50);
  e2e["step_p99_ms"] = Percentile(r.step_ms, 0.99);
  e2e["steps_per_s"] =
      r.window_s > 0 ? static_cast<double>(r.step_ms.size()) / r.window_s
                     : 0.0;
  e2e["user_cost"] = Median(r.user_cost);
  e2e["peak_rss_mb"] = r.peak_rss_mb;
  double append_rows_per_s =
      r.append_s > 0 ? static_cast<double>(r.rows_appended) / r.append_s : 0;
  double failed_frac =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);

  std::fprintf(stderr, "\n== %s  seed=%llu  seconds=%g  trace=%d ==\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               config.trace ? 1 : 0);
  std::fprintf(stderr, "samples: %zu steps, %zu status reads, %zu sessions, "
               "%zu set-ups, window %.3f s\n",
               r.step_ms.size(), r.status_ms.size(), r.session_s.size(),
               r.setup_s.size(), r.window_s);
  std::fprintf(stderr, "%-34s %-8s %s\n", "end-to-end metric", "unit",
               "value");
  for (const MetricDef& d : kEndToEnd) {
    std::fprintf(stderr, "%-34s %-8s %.6g\n", d.name, d.unit, e2e[d.name]);
  }
  // Reported, not gated: they exist on one workload each (see README.md).
  if (!r.status_ms.empty()) {
    std::fprintf(stderr, "%-34s %-8s %.6g\n", "status_p50_ms", "ms",
                 Percentile(r.status_ms, 0.50));
    std::fprintf(stderr, "%-34s %-8s %.6g\n", "status_p99_ms", "ms",
                 Percentile(r.status_ms, 0.99));
  } else {
    std::fprintf(stderr, "%-34s %-8s %s\n", "status_p50_ms", "ms",
                 "n/a (no status verb in this workload)");
    std::fprintf(stderr, "%-34s %-8s %s\n", "status_p99_ms", "ms",
                 "n/a (no status verb in this workload)");
  }
  if (r.append_s > 0) {
    std::fprintf(stderr, "%-34s %-8s %.6g\n", "append_rows_per_s", "rows/s",
                 append_rows_per_s);
  } else {
    std::fprintf(stderr, "%-34s %-8s %s\n", "append_rows_per_s", "rows/s",
                 "n/a (no appends in this workload)");
  }
  std::fprintf(stderr, "%-34s %-8s %.6g  (%zu failed of %zu attempted)\n",
               "failed_frac", "ratio", failed_frac, r.failed, r.attempted);
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }

  bool complete = true;
  if (r.step_ms.size() < kMinSamples ||
      (!r.status_ms.empty() && r.status_ms.size() < kMinSamples)) {
    std::fprintf(stderr, "error: fewer than %zu step/status samples\n",
                 kMinSamples);
    complete = false;
  }
  for (const MetricDef& d : kEndToEnd) {
    if (!(e2e[d.name] > 0.0) || !std::isfinite(e2e[d.name])) {
      std::fprintf(stderr, "error: metric %s was not measured\n", d.name);
      complete = false;
    }
  }
  for (const auto& [name, value] : r.layer) {
    if (!KnownLayerMetric(name)) {
      std::fprintf(stderr, "error: unknown per-layer metric %s\n",
                   name.c_str());
      complete = false;
    }
  }

  falcon::JsonValue metrics = falcon::JsonValue::Object();
  if (config.trace) {
    std::fprintf(stderr, "\n%-34s %-8s %s\n", "per-layer metric", "unit",
                 "value");
    for (const MetricDef& d : kPerLayer) {
      auto it = r.layer.find(d.name);
      double v = it == r.layer.end() ? 0.0 : it->second;
      std::fprintf(stderr, "%-34s %-8s %.6g%s\n", d.name, d.unit, v,
                   it == r.layer.end() ? "  (not exercised)" : "");
      falcon::JsonValue m = falcon::JsonValue::Object();
      m.Set("value", v);
      m.Set("unit", d.unit);
      metrics.Set(d.name, std::move(m));
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      falcon::JsonValue m = falcon::JsonValue::Object();
      m.Set("value", e2e[d.name]);
      m.Set("unit", d.unit);
      metrics.Set(d.name, std::move(m));
    }
  }
  for (const std::string& note : r.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  if (!complete) return false;

  falcon::JsonValue out = falcon::JsonValue::Object();
  out.Set("correct", r.failed == 0);
  out.Set("attempted", r.attempted);
  out.Set("failed", r.failed);
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n", out.Serialize().c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace perfbench
