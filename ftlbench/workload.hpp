// The benchmark's workloads: statement pools generated from a seed, the
// reply checks, and the system shape every workload shares.
//
// Shape (all workloads): hosts=3 on the zero-delay simulated transport, one
// issuer on host 1 (host 0 is the sequencer, so every AGS takes the
// Request -> Ordered path) and a window of 32 outstanding futures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftlinda/system.hpp"

namespace ftlbench {

using ftl::ftlinda::Ags;
using ftl::ftlinda::Reply;

enum class Workload { kReplicate, kKeyed, kDurable };

constexpr std::uint32_t kHosts = 3;
constexpr ftl::net::HostId kIssuerHost = 1;
constexpr std::size_t kWindow = 32;
constexpr std::int64_t kResidentKeys = 1024;  // keyed: preloaded ("k", key, int, real)
constexpr std::size_t kPoolSize = 4096;

bool parseWorkload(const std::string& name, Workload* out);
const char* workloadName(Workload w);

/// One pooled statement plus what its reply is checked against.
struct Stmt {
  enum class Kind : std::uint8_t {
    kOutInp,   // <true => out("t", k); inp("t", k)>
    kRead,     // <rd("k", key, ?int, ?real) => >
    kWrite,    // <in("k", key, ?int, ?real) => out("k", key, v+1, r)>
    kBlockIn,  // <in("w", k) => >   (blocks until its waker)
    kWake,     // <true => out("w", k)>
  };
  Kind kind = Kind::kOutInp;
  std::int64_t key = 0;
  Ags ags;
};

/// The fixed statement pool of one workload, cycled by the closed loop.
/// Every blocking in("w", k) has its waker at most kWindow-1 positions later
/// (the closed loop would stall otherwise), and `safe[i]` marks positions
/// where no blocked statement still waits for a later waker — the loop only
/// stops there, so draining the window never deadlocks.
struct Pool {
  Workload workload = Workload::kReplicate;
  std::vector<Stmt> stmts;
  std::vector<bool> safe;
};

Pool makePool(Workload w, std::uint64_t seed);

/// The issuer's model of replicated state, advanced in submission order.
/// With one issuer, per-issuer FIFO makes submission order the total order,
/// so the model predicts every reply exactly.
class Model {
 public:
  explicit Model(Workload w);
  /// Expected value carried by the reply of `s`, taken at submission (for
  /// keyed reads and writes: the key's version; otherwise unused).
  std::int64_t expect(const Stmt& s);
  std::int64_t version(std::int64_t key) const { return versions_[static_cast<std::size_t>(key)]; }
  std::size_t expectedTuples() const { return expected_tuples_; }

 private:
  std::vector<std::int64_t> versions_;
  std::size_t expected_tuples_ = 0;
};

/// True iff `r` is exactly the reply `s` must produce given `expected`.
bool replyOk(const Stmt& s, std::int64_t expected, const ftl::Result<Reply>& r);

/// The tuple keyed preloads for `key` at version 0.
ftl::tuple::Tuple residentTuple(std::int64_t key);

ftl::ftlinda::SystemConfig systemConfig(Workload w, const std::string& wal_dir);

/// The statements that deposit the workload's resident set (keyed only).
std::vector<Ags> preloadStatements(Workload w);
/// Execute preloadStatements(w) through `rt`.
void preload(Workload w, ftl::ftlinda::Runtime& rt);

/// Replica agreement at the end of a run: waits (bounded) until every
/// replica's state digest is equal, then checks TSmain's contents against
/// the model. Returns an empty string on success, else what went wrong.
std::string checkReplicas(ftl::ftlinda::FtLindaSystem& sys, const Model& model);

}  // namespace ftlbench
