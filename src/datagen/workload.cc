#include "datagen/workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <utility>

#include "datagen/datasets.h"
#include "errorgen/injector.h"

namespace falcon {
namespace {

/// Largest table a scaled workload may ask for: the 10M-row Fig. 8 sweep
/// is the biggest this repository builds.
constexpr size_t kMaxWorkloadRows = 10'000'000;

}  // namespace

StatusOr<CleaningWorkload> MakeCleaningWorkload(const std::string& name,
                                                double scale) {
  // `scale` arrives unchecked from open_session requests and journal
  // metadata; casting a negative, huge or non-finite product to size_t is
  // undefined, so reject those before any cast.
  if (!std::isfinite(scale) || scale <= 0.0) {
    return Status::InvalidArgument("workload scale must be finite and > 0");
  }
  auto rows = [scale](size_t base) -> StatusOr<size_t> {
    double n = static_cast<double>(base) * scale;
    if (n > static_cast<double>(kMaxWorkloadRows)) {
      return Status::InvalidArgument(
          "workload scale asks for more than " +
          std::to_string(kMaxWorkloadRows) + " rows");
    }
    return std::max<size_t>(500, static_cast<size_t>(n));
  };

  StatusOr<Dataset> ds = Status::InvalidArgument("unknown dataset " + name);
  if (name == "Soccer") {
    ds = MakeSoccer();
  } else if (name == "Hospital") {
    FALCON_ASSIGN_OR_RETURN(size_t n, rows(10000));
    ds = MakeHospital(n);
  } else if (name == "Synth10k") {
    FALCON_ASSIGN_OR_RETURN(size_t n, rows(10000));
    ds = MakeSynth(n);
  } else if (name == "Synth1M") {
    // Paper: 1M tuples. Default harness scale runs 50k; --scale grows it.
    FALCON_ASSIGN_OR_RETURN(size_t n, rows(50000));
    ds = MakeSynth(n, /*seed=*/29);
  } else if (name == "DBLP") {
    FALCON_ASSIGN_OR_RETURN(size_t n, rows(20000));
    ds = MakeDblp(n);
  } else if (name == "BUS") {
    FALCON_ASSIGN_OR_RETURN(size_t n, rows(12000));
    ds = MakeBus(n);
  }
  FALCON_RETURN_IF_ERROR(ds.status());

  FALCON_ASSIGN_OR_RETURN(auto dirty, InjectErrors(ds->clean, ds->error_spec));

  CleaningWorkload w;
  w.name = name;
  w.clean = std::move(ds->clean);
  w.dirty = std::move(dirty.dirty);
  w.errors = dirty.errors.size();
  w.patterns = dirty.injected_patterns.size();
  w.snapshot_id = NextWorkloadSnapshotId();
  return w;
}

uint64_t NextWorkloadSnapshotId() {
  // Each built instance gets a fresh process-unique generation id: two
  // calls with identical inputs produce bit-identical tables but distinct
  // snapshots, so shared read caches never alias across owners.
  static std::atomic<uint64_t> next_snapshot_id{1};
  return next_snapshot_id.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::string> AllWorkloadNames() {
  return {"Soccer", "Hospital", "Synth10k", "Synth1M", "DBLP", "BUS"};
}

}  // namespace falcon
