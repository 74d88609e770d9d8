#include "ladder.hpp"

#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>

#include "ftlinda/ts_state_machine.hpp"
#include "ftlinda/verify.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "rsm/replica.hpp"
#include "rsm/wal.hpp"
#include "ts/tuple_space.hpp"

namespace ftlbench {

using namespace ftl::ftlinda;
using ftl::Bytes;
using ftl::BytesView;
using ftl::nowNanos;
using ftl::tuple::Pattern;
using ftl::tuple::Tuple;

namespace {

std::vector<Bytes> encodePool(const Pool& pool) {
  std::vector<Bytes> out;
  out.reserve(pool.stmts.size());
  for (std::size_t i = 0; i < pool.stmts.size(); ++i) {
    out.push_back(makeExecute(i + 1, pool.stmts[i].ags).encode());
  }
  return out;
}

/// Runs `cycle` at least once and until `seconds` of wall time have passed.
/// Each cycle times its own work.
template <typename Fn>
void repeatFor(double seconds, Fn&& cycle) {
  const std::int64_t end = nowNanos() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    cycle();
  } while (nowNanos() < end);
}

double perItem(double total_ns, std::uint64_t items, double scale) {
  return items ? total_ns / static_cast<double>(items) / scale : 0;
}

}  // namespace

// The timed calls go into separately compiled libraries (no LTO), so the
// compiler cannot drop them even where their results go unused.

void ladderEncodeVerify(const Pool& pool, double seconds, Metrics& out) {
  double encode_ns = 0, verify_ns = 0;
  std::uint64_t n = 0;
  const std::vector<Bytes> encoded = encodePool(pool);
  repeatFor(seconds / 2, [&] {
    const std::int64_t t0 = nowNanos();
    for (std::size_t i = 0; i < pool.stmts.size(); ++i) {
      (void)makeExecute(i + 1, pool.stmts[i].ags).encode();
    }
    encode_ns += static_cast<double>(nowNanos() - t0);
    n += pool.stmts.size();
  });
  std::uint64_t m = 0, refused = 0;
  repeatFor(seconds / 2, [&] {
    const std::int64_t t0 = nowNanos();
    for (const Bytes& b : encoded) {
      refused += verifyEncoded(BytesView(b.data() + kCommandHeaderBytes,
                                         b.size() - kCommandHeaderBytes))
                     .ok()
                     ? 0
                     : 1;
    }
    verify_ns += static_cast<double>(nowNanos() - t0);
    m += encoded.size();
  });
  FTL_REQUIRE(refused == 0, "verifier refused a pool statement");
  out.push_back({"tuple.encode_ns", perItem(encode_ns, n, 1), "ns"});
  out.push_back({"ftlinda.verify_ns", perItem(verify_ns, m, 1), "ns"});
}

std::uint64_t ladderApply(const Pool& pool, double seconds, Metrics& out) {
  std::uint64_t bad = 0;
  TsStateMachine sm([&bad](ftl::net::HostId, std::uint64_t, const Reply& r) {
    if (!r.error.empty() || !r.succeeded) ++bad;
  });
  std::uint64_t gseq = 0;
  auto apply = [&](const Bytes& cmd) {
    ftl::rsm::ApplyContext ctx;
    ctx.gseq = ++gseq;
    ctx.origin = kIssuerHost;
    ctx.origin_seq = gseq;
    sm.apply(ctx, BytesView(cmd));
  };
  for (const Ags& a : preloadStatements(pool.workload)) apply(makeExecute(0, a).encode());
  const std::vector<Bytes> encoded = encodePool(pool);
  const TsStateMachine::Metrics m0 = sm.metrics();
  double ns = 0;
  std::uint64_t n = 0;
  repeatFor(seconds, [&] {
    const std::int64_t t0 = nowNanos();
    for (const Bytes& b : encoded) apply(b);
    ns += static_cast<double>(nowNanos() - t0);
    n += encoded.size();
  });
  const TsStateMachine::Metrics m1 = sm.metrics();
  const auto per = [n](std::uint64_t d) { return n ? static_cast<double>(d) / static_cast<double>(n) : 0; };
  out.push_back({"ftlinda.apply_us", perItem(ns, n, 1e3), "us"});
  out.push_back({"ftlinda.wake_probes_per_ags", per(m1.wake_probes - m0.wake_probes), "count"});
  out.push_back({"ftlinda.blocked_per_ags", per(m1.ags_blocked - m0.ags_blocked), "count"});
  return bad;
}

void ladderTupleSpace(const Pool& pool, double seconds, Metrics& out) {
  using ftl::tuple::fInt;
  using ftl::tuple::fReal;
  using ftl::tuple::makePattern;
  using ftl::tuple::makeTuple;
  const bool keyed = pool.workload == Workload::kKeyed;
  ftl::ts::TupleSpace space;
  if (keyed) {
    for (std::int64_t key = 0; key < kResidentKeys; ++key) space.put(residentTuple(key));
  }
  // One probe per statement that names a tuple by key: keyed reads and
  // writes address ("k", key, ?int, ?real), replicate's ("t", k).
  std::vector<Pattern> probes;
  std::vector<Tuple> deposits;
  std::vector<std::int64_t> keys;
  for (const Stmt& s : pool.stmts) {
    if (keyed && (s.kind == Stmt::Kind::kRead || s.kind == Stmt::Kind::kWrite)) {
      probes.push_back(makePattern("k", s.key, fInt(), fReal()));
      keys.push_back(s.key);
    } else if (!keyed) {
      probes.push_back(makePattern("t", s.key));
      deposits.push_back(makeTuple("t", s.key));
    }
  }
  // keyed times 64 distinct keys per batch against the resident set;
  // replicate's space holds one tuple at a time (out then inp in one AGS),
  // so its batches are single statements.
  const std::size_t batch_size = keyed ? 64 : 1;
  double read_ns = 0, take_ns = 0, put_ns = 0;
  std::uint64_t reads = 0, takes = 0, puts = 0, misses = 0;
  std::size_t next = 0;
  std::vector<std::size_t> batch;
  std::vector<Tuple> taken;
  std::vector<bool> in_batch(keyed ? static_cast<std::size_t>(kResidentKeys) : 0);
  repeatFor(seconds, [&] {
    // A batch never names one key twice, so every take finds its tuple.
    batch.clear();
    while (batch.size() < batch_size) {
      const std::size_t i = next;
      next = (next + 1) % probes.size();
      if (keyed) {
        if (in_batch[static_cast<std::size_t>(keys[i])]) break;
        in_batch[static_cast<std::size_t>(keys[i])] = true;
      }
      batch.push_back(i);
    }
    if (keyed) {
      for (std::size_t i : batch) in_batch[static_cast<std::size_t>(keys[i])] = false;
    } else {
      const std::int64_t p0 = nowNanos();
      for (std::size_t i : batch) space.put(deposits[i]);
      put_ns += static_cast<double>(nowNanos() - p0);
      puts += batch.size();
    }
    const std::int64_t r0 = nowNanos();
    for (std::size_t i : batch) misses += space.readRef(probes[i]) ? 0 : 1;
    read_ns += static_cast<double>(nowNanos() - r0);
    reads += batch.size();
    taken.clear();
    const std::int64_t t0 = nowNanos();
    for (std::size_t i : batch) {
      std::optional<Tuple> t = space.take(probes[i]);
      if (t) taken.push_back(std::move(*t));
    }
    take_ns += static_cast<double>(nowNanos() - t0);
    takes += batch.size();
    misses += batch.size() - taken.size();
    if (keyed) {
      const std::int64_t p0 = nowNanos();
      for (Tuple& t : taken) space.put(std::move(t));
      put_ns += static_cast<double>(nowNanos() - p0);
      puts += taken.size();
    }
  });
  FTL_REQUIRE(misses == 0, "tuple-space probe missed a resident tuple");
  out.push_back({"ts.read_ns", perItem(read_ns, reads, 1), "ns"});
  out.push_back({"ts.take_ns", perItem(take_ns, takes, 1), "ns"});
  out.push_back({"ts.put_ns", perItem(put_ns, puts, 1), "ns"});
}

namespace {

/// No-op state machine that only counts the commands host `self` issued.
class CountingMachine final : public ftl::rsm::StateMachine {
 public:
  explicit CountingMachine(ftl::net::HostId self) : self_(self) {}

  void apply(const ftl::rsm::ApplyContext& ctx, BytesView) override {
    if (ctx.origin != self_) return;
    std::lock_guard<std::mutex> lock(m_);
    ++done_;
    cv_.notify_one();
  }
  void onMembership(std::uint64_t, const std::vector<ftl::net::HostId>&,
                    const std::vector<ftl::net::HostId>&,
                    const std::vector<ftl::net::HostId>&) override {}
  Bytes snapshot() const override { return {}; }
  void restore(const Bytes&) override {}

  /// Block until fewer than `window` of `submitted` commands are unapplied.
  void waitBelow(std::uint64_t submitted, std::size_t window) {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return submitted - done_ < window; });
  }

 private:
  const ftl::net::HostId self_;
  std::mutex m_;
  std::condition_variable cv_;
  std::uint64_t done_ = 0;
};

}  // namespace

double ladderConsul(const Pool& pool, double seconds, Metrics& out) {
  const std::vector<Bytes> encoded = encodePool(pool);
  const ftl::consul::ConsulConfig cfg = mergedConsulConfig(systemConfig(pool.workload, "").consul);
  ftl::net::SimTransport net(kHosts);
  std::vector<std::unique_ptr<CountingMachine>> machines;
  std::vector<std::unique_ptr<ftl::rsm::Replica>> replicas;
  std::vector<ftl::net::HostId> group;
  for (ftl::net::HostId h = 0; h < kHosts; ++h) group.push_back(h);
  for (ftl::net::HostId h = 0; h < kHosts; ++h) {
    machines.push_back(std::make_unique<CountingMachine>(h));
    replicas.push_back(std::make_unique<ftl::rsm::Replica>(net, h, group, cfg, *machines.back()));
  }
  for (auto& r : replicas) r->start();
  ftl::obs::Histogram& send_batch = ftl::obs::histogram("ftl_consul_send_batch_size");
  ftl::obs::Histogram& apply_batch = ftl::obs::histogram("ftl_consul_apply_batch_size");
  send_batch.reset();
  apply_batch.reset();
  const ftl::net::TrafficStats s0 = net.totalStats();
  CountingMachine& issuer = *machines[kIssuerHost];
  std::uint64_t submitted = 0;
  std::size_t next = 0;
  const std::int64_t t0 = nowNanos();
  repeatFor(seconds, [&] {
    for (int i = 0; i < 64; ++i) {
      issuer.waitBelow(submitted, kWindow);
      replicas[kIssuerHost]->submit(encoded[next]);
      next = (next + 1) % encoded.size();
      ++submitted;
    }
  });
  issuer.waitBelow(submitted, 1);
  const double secs = static_cast<double>(nowNanos() - t0) / 1e9;
  const ftl::net::TrafficStats s1 = net.totalStats();
  const auto n = static_cast<double>(submitted);
  const double apply_mean = apply_batch.snapshot().mean();
  out.push_back({"consul.order_only_per_s", n / secs, "1/s"});
  out.push_back({"consul.send_batch_mean", send_batch.snapshot().mean(), "count"});
  out.push_back({"consul.apply_batch_mean", apply_mean, "count"});
  out.push_back({"net.msgs_per_ags", static_cast<double>(s1.messages_sent - s0.messages_sent) / n,
                 "count"});
  out.push_back(
      {"net.bytes_per_ags", static_cast<double>(s1.bytes_sent - s0.bytes_sent) / n, "B"});
  replicas.clear();  // stop the protocol threads before the machines go
  return apply_mean;
}

void ladderWal(const Pool& pool, double batch, const std::string& dir, double seconds,
               Metrics& out) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  std::vector<ftl::consul::LogEntry> entries;
  for (Bytes& b : encodePool(pool)) {
    ftl::consul::LogEntry e;
    e.origin = kIssuerHost;
    e.payload = std::move(b);
    entries.push_back(std::move(e));
  }
  const auto per_commit = static_cast<std::size_t>(std::max(1.0, batch + 0.5));
  double append_ns = 0, commit_ns = 0;
  std::uint64_t appends = 0, commits = 0, gseq = 0;
  {
    ftl::rsm::WalConfig cfg;
    cfg.dir = dir;
    ftl::rsm::Wal wal(cfg);
    (void)wal.recover();
    std::size_t next = 0;
    auto appendBatch = [&] {
      for (std::size_t i = 0; i < per_commit; ++i) {
        ftl::consul::LogEntry& e = entries[next];
        next = (next + 1) % entries.size();
        e.gseq = ++gseq;
        e.origin_seq = gseq;
        wal.append(e);
      }
    };
    // The first commit zero-fills the log's preallocated extent; keep it
    // out of the timed commits, as the system's set-up does.
    appendBatch();
    wal.commit();
    repeatFor(seconds, [&] {
      const std::int64_t a0 = nowNanos();
      appendBatch();
      const std::int64_t c0 = nowNanos();
      wal.commit();
      const std::int64_t c1 = nowNanos();
      append_ns += static_cast<double>(c0 - a0);
      commit_ns += static_cast<double>(c1 - c0);
      appends += per_commit;
      ++commits;
    });
  }
  fs::remove_all(dir);
  out.push_back({"rsm.append_ns", perItem(append_ns, appends, 1), "ns"});
  out.push_back({"rsm.commit_us", perItem(commit_ns, commits, 1e3), "us"});
}

}  // namespace ftlbench
