// What one benchmark run measured, and how it is printed: the end-to-end
// metrics (untraced runs), the per-layer metrics (traced runs), the
// correctness verdict, and a human-readable table of every metric.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Flags of one invocation.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Working directory for sockets, journals and traces.
};

struct RunResult {
  // Operations attempted and failed. A failed operation is an error, a
  // rejection that outlived its retries, or a correctness mismatch.
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;  ///< One line per failure (capped).

  std::vector<double> setup_s;    ///< One entry per repeated set-up.
  std::vector<double> session_s;  ///< One entry per converged session.
  std::vector<double> step_ms;    ///< Analyst step latencies.
  std::vector<double> status_ms;  ///< `status` verb latencies (service).
  std::vector<double> user_cost;  ///< T_C = U + A per converged session.
  double window_s = 0.0;          ///< Wall time of the measured window.
  double peak_rss_mb = 0.0;
  size_t rows_appended = 0;
  double append_s = 0.0;  ///< Time inside CleaningSession::AppendBatch.

  /// Per-layer metrics by name (traced runs). Names absent here print as
  /// 0: the layer is not exercised by this workload.
  std::map<std::string, double> layer;
  /// Free-form report lines (cache fit, seed sensitivity, self times).
  std::vector<std::string> notes;

  void Fail(const std::string& why);
};

/// Median and nearest-rank percentile of an unsorted sample (0 if empty).
double Median(std::vector<double> v);
double Percentile(std::vector<double> v, double p);

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

/// Prints the human-readable report to stderr and the one-line JSON result
/// to stdout. Returns false if the result is incomplete (a metric could not
/// be measured), in which case no JSON is printed.
bool PrintResult(const RunConfig& config, const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
