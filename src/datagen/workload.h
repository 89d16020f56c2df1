// Canonical benchmark/service workloads: a dataset instance plus its
// paper-matched injected errors, built deterministically from (name,
// scale). Both the bench harness and the cleaning service build datasets
// through this one function, so a service session and a serial bench run
// given the same (name, scale) operate on bit-identical tables — the basis
// of the service layer's bit-identity verification.
#ifndef FALCON_DATAGEN_WORKLOAD_H_
#define FALCON_DATAGEN_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "relational/table.h"

namespace falcon {

/// One dataset instance ready for cleaning runs.
struct CleaningWorkload {
  std::string name;
  Table clean;
  Table dirty;
  size_t errors = 0;    ///< Injected dirty cells.
  size_t patterns = 0;  ///< Injected rule patterns.
  /// Process-unique snapshot generation id, assigned by
  /// MakeCleaningWorkload: two builds never share one, so it tells cached
  /// instances apart (and counts builds). 0 = a hand-assembled workload.
  uint64_t snapshot_id = 0;
};

/// Builds one workload by dataset name: Soccer, Hospital, Synth10k,
/// Synth1M, DBLP, BUS. Sizes at scale 1 are CI-sized stand-ins for the
/// paper's instances (documented in EXPERIMENTS.md). Unknown names return
/// InvalidArgument.
StatusOr<CleaningWorkload> MakeCleaningWorkload(const std::string& name,
                                                double scale = 1.0);

/// The paper's six evaluation datasets in its order.
std::vector<std::string> AllWorkloadNames();

/// Next process-unique CleaningWorkload::snapshot_id. Every workload
/// builder (named datasets, spec-driven generation) draws from this one
/// counter, so ids never collide across builders.
uint64_t NextWorkloadSnapshotId();

}  // namespace falcon

#endif  // FALCON_DATAGEN_WORKLOAD_H_
