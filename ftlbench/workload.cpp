#include "workload.hpp"

#include <chrono>
#include <map>
#include <thread>

#include "common/rng.hpp"

namespace ftlbench {

using namespace ftl::ftlinda;
using ftl::tuple::fInt;
using ftl::tuple::fReal;
using ftl::tuple::makePattern;
using ftl::tuple::Tuple;
using ftl::tuple::ValueType;
using ftl::ts::kTsMain;

bool parseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kReplicate, Workload::kKeyed, Workload::kDurable}) {
    if (name == workloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::kReplicate: return "replicate";
    case Workload::kKeyed: return "keyed";
    case Workload::kDurable: return "durable";
  }
  return "?";
}

namespace {

double residentReal(std::int64_t key) { return 0.5 * static_cast<double>(key); }

Stmt outInp(std::int64_t k) {
  Stmt s;
  s.kind = Stmt::Kind::kOutInp;
  s.key = k;
  s.ags = AgsBuilder()
              .when(guardTrue())
              .then(opOut(kTsMain, makeTemplate("t", k)))
              .then(opInp(kTsMain, makePatternTemplate("t", k)))
              .build();
  return s;
}

Stmt keyedRead(std::int64_t key) {
  Stmt s;
  s.kind = Stmt::Kind::kRead;
  s.key = key;
  s.ags = AgsBuilder().when(guardRd(kTsMain, makePattern("k", key, fInt(), fReal()))).build();
  return s;
}

Stmt keyedWrite(std::int64_t key) {
  Stmt s;
  s.kind = Stmt::Kind::kWrite;
  s.key = key;
  s.ags = AgsBuilder()
              .when(guardIn(kTsMain, makePattern("k", key, fInt(), fReal())))
              .then(opOut(kTsMain, makeTemplate("k", key, boundExpr(0, ArithOp::Add, Value(1)),
                                                bound(1))))
              .build();
  return s;
}

Stmt blockIn(std::int64_t k) {
  Stmt s;
  s.kind = Stmt::Kind::kBlockIn;
  s.key = k;
  s.ags = AgsBuilder().when(guardIn(kTsMain, makePattern("w", k))).build();
  return s;
}

Stmt wake(std::int64_t k) {
  Stmt s;
  s.kind = Stmt::Kind::kWake;
  s.key = k;
  s.ags = AgsBuilder().when(guardTrue()).then(opOut(kTsMain, makeTemplate("w", k))).build();
  return s;
}

// keyed's statement mix. A blocking in("w", k) is placed with probability
// kBlockShare and its waker 1..16 positions later; of the rest, kReadShare
// are reads and the others writes.
constexpr double kBlockShare = 0.05;
constexpr double kReadShare = 0.55;
constexpr std::size_t kMaxWakeDelay = 16;

}  // namespace

Pool makePool(Workload w, std::uint64_t seed) {
  Pool pool;
  pool.workload = w;
  ftl::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(w) + 1);
  if (w != Workload::kKeyed) {
    // Distinct keys per pool position; TSmain is empty before and after
    // each statement, so the cycle repeats exactly.
    const std::int64_t base = static_cast<std::int64_t>(rng.below(std::uint64_t{1} << 40));
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      pool.stmts.push_back(outInp(base + static_cast<std::int64_t>(i)));
    }
    pool.safe.assign(kPoolSize, true);
    return pool;
  }
  std::multimap<std::size_t, std::int64_t> pending;  // due position -> w key
  std::map<std::int64_t, std::size_t> blocked_at;
  std::int64_t next_w = 0;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    pool.safe.push_back(pending.empty());
    if (!pending.empty() && pending.begin()->first <= i) {
      const std::int64_t k = pending.begin()->second;
      pending.erase(pending.begin());
      FTL_REQUIRE(i - blocked_at.at(k) < kWindow, "waker fell outside the window");
      pool.stmts.push_back(wake(k));
    } else if (i + 2 * kWindow < kPoolSize && rng.chance(kBlockShare)) {
      const std::int64_t k = next_w++;
      blocked_at[k] = i;
      pending.emplace(i + 1 + rng.below(kMaxWakeDelay), k);
      pool.stmts.push_back(blockIn(k));
    } else {
      const auto key = static_cast<std::int64_t>(rng.below(kResidentKeys));
      pool.stmts.push_back(rng.chance(kReadShare) ? keyedRead(key) : keyedWrite(key));
    }
  }
  FTL_REQUIRE(pending.empty(), "pool ends with an unwoken blocked statement");
  return pool;
}

Model::Model(Workload w) {
  if (w == Workload::kKeyed) {
    versions_.assign(kResidentKeys, 0);
    expected_tuples_ = kResidentKeys;
  }
}

std::int64_t Model::expect(const Stmt& s) {
  switch (s.kind) {
    case Stmt::Kind::kRead: return versions_[static_cast<std::size_t>(s.key)];
    case Stmt::Kind::kWrite: return versions_[static_cast<std::size_t>(s.key)]++;
    default: return 0;
  }
}

bool replyOk(const Stmt& s, std::int64_t expected, const ftl::Result<Reply>& r) {
  if (!r.ok()) return false;
  const Reply& rep = r.value();
  if (!rep.error.empty() || !rep.succeeded) return false;
  auto fieldIs = [](const Tuple& t, std::size_t i, std::int64_t v) {
    return t.field(i).type() == ValueType::Int && t.field(i).asInt() == v;
  };
  auto nameIs = [](const Tuple& t, const char* name) {
    return t.arity() > 0 && t.field(0).type() == ValueType::Str && t.field(0).asStr() == name;
  };
  switch (s.kind) {
    case Stmt::Kind::kOutInp:
      return rep.op_status.size() == 2 && rep.op_status[1];
    case Stmt::Kind::kRead:
    case Stmt::Kind::kWrite: {
      if (!rep.guard_tuple || rep.guard_tuple->arity() != 4) return false;
      const Tuple& t = *rep.guard_tuple;
      return nameIs(t, "k") && fieldIs(t, 1, s.key) && fieldIs(t, 2, expected);
    }
    case Stmt::Kind::kBlockIn:
      return rep.guard_tuple && rep.guard_tuple->arity() == 2 && nameIs(*rep.guard_tuple, "w") &&
             fieldIs(*rep.guard_tuple, 1, s.key);
    case Stmt::Kind::kWake:
      return true;
  }
  return false;
}

Tuple residentTuple(std::int64_t key) {
  return ftl::tuple::makeTuple("k", key, std::int64_t{0}, residentReal(key));
}

SystemConfig systemConfig(Workload w, const std::string& wal_dir) {
  SystemConfig cfg;
  cfg.hosts = kHosts;
  cfg.transport = TransportKind::kSim;
  // Heartbeat and ack keep their simulation periods (10 ms, 20 ms). Pushing
  // them out to seconds, as E13/E16 do, lets the sequencer hold every
  // ordered entry until the next ack: memory then grows with throughput and
  // each late ack trims a burst, which doubled the run-to-run spread of
  // keyed (README.md, "Noise"). Only the failure timeout is pushed out, as
  // E13/E16 do: a process descheduled for 80 ms must not be suspected,
  // because the view change would split the replicas mid-run.
  cfg.consul = simulationConsulConfig();
  cfg.consul.failure_timeout = ftl::Micros{60'000'000};
  if (w == Workload::kDurable) cfg.wal.dir = wal_dir;
  return cfg;
}

std::vector<Ags> preloadStatements(Workload w) {
  std::vector<Ags> out;
  if (w != Workload::kKeyed) return out;
  constexpr std::int64_t kPerAgs = 128;
  for (std::int64_t base = 0; base < kResidentKeys; base += kPerAgs) {
    AgsBuilder b;
    b.when(guardTrue());
    for (std::int64_t key = base; key < base + kPerAgs; ++key) {
      b.then(opOut(kTsMain, makeTemplate("k", key, std::int64_t{0}, residentReal(key))));
    }
    out.push_back(b.build());
  }
  return out;
}

void preload(Workload w, Runtime& rt) {
  for (const Ags& a : preloadStatements(w)) requireReply(rt.tryExecute(a));
}

std::string checkReplicas(FtLindaSystem& sys, const Model& model) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool agree = false;
  while (!agree) {
    const ftl::Bytes first = sys.stateMachine(0).stateDigestBytes();
    agree = true;
    for (std::uint32_t h = 1; h < sys.hostCount(); ++h) {
      agree = agree && sys.stateMachine(h).stateDigestBytes() == first;
    }
    if (agree || std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!agree) return "replica state digests differ";
  const std::vector<Tuple> contents = sys.stateMachine(kIssuerHost).spaceContents(kTsMain);
  if (contents.size() != model.expectedTuples()) {
    return "TSmain holds " + std::to_string(contents.size()) + " tuples, expected " +
           std::to_string(model.expectedTuples());
  }
  std::vector<bool> seen(model.expectedTuples(), false);
  for (const Tuple& t : contents) {
    const bool shaped = t.arity() == 4 && t.field(1).type() == ValueType::Int &&
                        t.field(2).type() == ValueType::Int &&
                        t.field(3).type() == ValueType::Real;
    const std::int64_t key = shaped ? t.field(1).asInt() : -1;
    if (key < 0 || key >= kResidentKeys || seen[static_cast<std::size_t>(key)] ||
        t.field(2).asInt() != model.version(key) || t.field(3).asReal() != residentReal(key)) {
      return "unexpected resident tuple " + t.toString();
    }
    seen[static_cast<std::size_t>(key)] = true;
  }
  return "";
}

}  // namespace ftlbench
