// The benchmark's three workloads. Each builds its inputs from the run's
// seed, measures for the configured number of seconds, checks every
// session against a reference run, and fills a RunResult.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "report.h"

namespace perfbench {

/// In-process, serial CoDive sessions on a ~200k-row Synth table.
RunResult RunSessionLarge(const RunConfig& config);

/// In-process sessions on a 1M-row generated table that grows by 20
/// appended batches of 10k rows mid-session.
RunResult RunStreamAppend(const RunConfig& config);

/// Four closed-loop analysts against an in-process CleaningServer on a
/// Unix socket, with journaling on, over 10k-row Hospital.
RunResult RunServiceHospital(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
