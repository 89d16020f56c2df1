// falcon_perfbench: the repository's end-to-end benchmark of FALCON's
// interactive loop.
//
//   falcon_perfbench --workload <session_large|stream_append|
//                    service_hospital> --seed <n> --seconds <s>
//                    --trace <0|1> --work_dir <dir>
//
// Prints a human-readable report on stderr and, as the last line of
// stdout, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits non-zero without a JSON line when a metric could not be measured.
#include <cstdio>
#include <filesystem>
#include <string>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: falcon_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --work_dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string trace_flag = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        config.workload = value;
      } else if (key == "--seed") {
        config.seed = std::stoull(value);
      } else if (key == "--seconds") {
        config.seconds = std::stod(value);
      } else if (key == "--trace") {
        trace_flag = value;
      } else if (key == "--work_dir") {
        config.work_dir = value;
      } else {
        return Usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags come in --name value pairs");
  if (trace_flag != "0" && trace_flag != "1") return Usage("--trace is 0 or 1");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  if (config.work_dir.empty()) return Usage("--work_dir is required");
  config.trace = trace_flag == "1";
  perfbench::Tracer::Global().Enable(config.trace);
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Usage(("cannot create " + config.work_dir).c_str());

  perfbench::RunResult result;
  if (config.workload == "session_large") {
    result = perfbench::RunSessionLarge(config);
  } else if (config.workload == "stream_append") {
    result = perfbench::RunStreamAppend(config);
  } else if (config.workload == "service_hospital") {
    result = perfbench::RunServiceHospital(config);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  if (config.trace) {
    perfbench::Tracer& tracer = perfbench::Tracer::Global();
    result.layer["trace.spans"] = static_cast<double>(tracer.size());
    std::string path = config.work_dir + "/trace-" + config.workload + "-" +
                       std::to_string(config.seed) + ".jsonl";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "\nspans written to %s\n%-34s %8s %12s %12s\n",
                 path.c_str(), "span (self time)", "count", "total_ms",
                 "self_ms");
    for (const auto& [name, t] : tracer.Totals()) {
      std::fprintf(stderr, "%-34s %8zu %12.3f %12.3f\n", name.c_str(),
                   t.count, t.total_ms, t.self_ms);
    }
  }
  return perfbench::PrintResult(config, result) ? 0 : 1;
}
