// The per-layer ladder: standalone replays of one workload's pool through
// each module's public entry points, timed from outside. Nothing here is
// instrumentation inside src/; every number is a call into the module.
#pragma once

#include <string>
#include <vector>

#include "workload.hpp"

namespace ftlbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// tuple.encode_ns (makeExecute(rid, ags).encode()) and ftlinda.verify_ns
/// (verifyEncoded over the encoded AGS bytes).
void ladderEncodeVerify(const Pool& pool, double seconds, Metrics& out);

/// ftlinda.apply_us, ftlinda.wake_probes_per_ags, ftlinda.blocked_per_ags:
/// the pool replayed through a standalone TsStateMachine::apply after the
/// workload's preload. Returns the number of error or unsuccessful replies.
std::uint64_t ladderApply(const Pool& pool, double seconds, Metrics& out);

/// ts.read_ns, ts.take_ns, ts.put_ns: a standalone TupleSpace holding the
/// workload's resident set, probed with the pool's patterns.
void ladderTupleSpace(const Pool& pool, double seconds, Metrics& out);

/// consul.order_only_per_s, consul.send_batch_mean, consul.apply_batch_mean,
/// net.msgs_per_ags, net.bytes_per_ags: a 3-host rsm::Replica group over
/// SimTransport with a no-op state machine, one issuer on host 1 keeping
/// kWindow of the pool's encoded commands in flight. Returns the apply-batch
/// mean (the rsm replay commits once per that many entries).
double ladderConsul(const Pool& pool, double seconds, Metrics& out);

/// rsm.append_ns, rsm.commit_us: a standalone rsm::Wal in `dir` appending
/// pool-sized consul::LogEntry records and committing once per `batch`.
void ladderWal(const Pool& pool, double batch, const std::string& dir, double seconds,
               Metrics& out);

}  // namespace ftlbench
