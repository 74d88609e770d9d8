// ftlbench — the repository benchmark (README.md in this directory).
//
//   ftlbench --workload replicate|keyed|durable --seed N --seconds S
//            --trace 0|1 [--scratch DIR]
//            [--git-sha X] [--source-digest X] [--corrupt-reply I]
//
// --trace 0 measures the end-to-end metrics with tracing off: kSetups
// systems are built in turn (construction, group formation, preload,
// warm-up; the median is setup_s) and each runs S / kSetups seconds of the
// closed loop.
// --trace 1 measures the per-layer ladder: an untraced reference loop that
// spans each executeAsync/get call and reads the WAL counters, a traced
// loop analysed by obs::assemble, then the standalone replays in ladder.hpp.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. A wrong, missing or error reply, or replicas that
// disagree at the end, count as failed and make the exit status 1.
// --corrupt-reply I corrupts the I-th reply of the timed loop before it is
// checked (the benchmark's own self-test uses it).
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "ladder.hpp"
#include "loop.hpp"
#include "obs/assemble.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ftlbench {
namespace {

using namespace ftl::ftlinda;
namespace fs = std::filesystem;

constexpr int kSetups = 3;

struct Args {
  Workload workload = Workload::kReplicate;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string scratch = ".bench_build/ftlbench-scratch";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::int64_t corrupt_at = -1;
};

bool parseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      if (!parseWorkload(v, &a->workload)) return false;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--scratch") {
      a->scratch = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--source-digest") {
      a->source_digest = v;
    } else if (k == "--corrupt-reply") {
      a->corrupt_at = std::atoll(v);
    } else {
      return false;
    }
  }
  return have_workload && a->seconds > 0 && (a->trace == 0 || a->trace == 1) && argc % 2 == 1;
}

/// One built system with its issuer. `sys` is declared last so it is
/// destroyed first: the loop holds its runtime.
struct Bench {
  std::unique_ptr<Model> model;
  std::unique_ptr<ClosedLoop> loop;
  std::unique_ptr<FtLindaSystem> sys;

  void reset() {
    sys.reset();
    loop.reset();
    model.reset();
  }
};

/// Construction, group formation, preload and one warm-up pass over the
/// pool. Returns the seconds it took.
double setUp(Bench& b, const Pool& pool, const std::string& wal_dir, std::uint64_t* failed) {
  const std::int64_t t0 = ftl::nowNanos();
  b.sys = std::make_unique<FtLindaSystem>(systemConfig(pool.workload, wal_dir));
  Runtime& rt = b.sys->runtime(kIssuerHost);
  preload(pool.workload, rt);
  b.model = std::make_unique<Model>(pool.workload);
  b.loop = std::make_unique<ClosedLoop>(rt, pool, *b.model);
  LoopOptions warm;
  warm.min_stmts = kPoolSize;
  *failed += b.loop->run(warm).failed;
  return static_cast<double>(ftl::nowNanos() - t0) / 1e9;
}

std::string affinityList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int e = c;
    while (e + 1 < CPU_SETSIZE && CPU_ISSET(e + 1, &set)) ++e;
    if (!out.empty()) out += ",";
    out += e > c ? std::to_string(c) + "-" + std::to_string(e) : std::to_string(c);
    c = e;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metricsJson(const Metrics& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  return out + "}";
}

/// Deltas of the WAL's own counters over the timed loops.
class WalDelta {
 public:
  void begin() { start_ = read(); }
  void end() {
    const Mark m = read();
    fsyncs_ += m.fsyncs - start_.fsyncs;
    fsync_ns_ += m.fsync_ns - start_.fsync_ns;
    bytes_ += m.bytes - start_.bytes;
  }
  double fsyncsPerAgs(std::uint64_t ags) const { return ags ? fsyncs_ / static_cast<double>(ags) : 0; }
  double bytesPerAgs(std::uint64_t ags) const { return ags ? bytes_ / static_cast<double>(ags) : 0; }
  double fsyncUs() const { return fsyncs_ > 0 ? fsync_ns_ / fsyncs_ / 1e3 : 0; }

 private:
  struct Mark {
    double fsyncs = 0, fsync_ns = 0, bytes = 0;
  };
  static Mark read() {
    const auto h = ftl::obs::histogram("ftl_wal_fsync_ns").snapshot();
    return {static_cast<double>(h.count), static_cast<double>(h.sum),
            static_cast<double>(ftl::obs::counter("ftl_wal_appended_bytes").value())};
  }
  Mark start_;
  double fsyncs_ = 0, fsync_ns_ = 0, bytes_ = 0;
};

/// Provenance plus ungated diagnostics of the timed loop: hypervisor steal,
/// other processes' CPU use, single-thread speed (calibrationMs),
/// involuntary context switches and, where the WAL is on, fdatasync cost —
/// the causes a noisy run's spread can be traced to.
void printProvenance(const Args& a, const LoopResult& timed, const WalDelta& wal,
                     double calib_ms) {
  const Metrics diag = {
      {"host.steal_frac", timed.steal_frac, "ratio"},
      {"host.other_cpu_frac", timed.other_cpu_frac, "ratio"},
      {"host.calib_ms", calib_ms, "ms"},
      {"host.nivcsw_per_ags", timed.nivcsw_per_ags, "count"},
      {"rsm.fsyncs_per_ags", wal.fsyncsPerAgs(timed.attempted), "count"},
      {"rsm.fsync_us", wal.fsyncUs(), "us"},
  };
  std::printf(
      "{\"provenance\": {\"git_sha\": \"%s\", \"source_digest\": \"%s\", \"build_type\": "
      "\"%s\", \"nproc\": %u, \"affinity\": \"%s\", \"transport\": \"sim\", \"hosts\": %u, "
      "\"issuers\": 1, \"issuer_host\": %u, \"window\": %zu, \"workload\": \"%s\", \"seed\": "
      "%llu}, \"diagnostics\": %s}\n",
      a.git_sha.c_str(), a.source_digest.c_str(), FTLBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), affinityList().c_str(), kHosts, kIssuerHost, kWindow,
      workloadName(a.workload), static_cast<unsigned long long>(a.seed),
      metricsJson(diag).c_str());
}

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed, const Metrics& ms) {
  for (const Metric& m : ms) std::printf("  %-30s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metricsJson(ms).c_str());
  std::fflush(stdout);
}

/// Pools `part` into `total` (diagnostics weighted by time and AGS).
void accumulate(LoopResult& total, const LoopResult& part) {
  const double secs = total.secs + part.secs;
  const auto n = static_cast<double>(total.attempted + part.attempted);
  if (secs > 0) {
    total.steal_frac = (total.steal_frac * total.secs + part.steal_frac * part.secs) / secs;
    total.other_cpu_frac =
        (total.other_cpu_frac * total.secs + part.other_cpu_frac * part.secs) / secs;
  }
  if (n > 0) {
    total.nivcsw_per_ags = (total.nivcsw_per_ags * static_cast<double>(total.attempted) +
                            part.nivcsw_per_ags * static_cast<double>(part.attempted)) / n;
  }
  total.secs = secs;
  total.attempted += part.attempted;
  total.failed += part.failed;
  total.slice_rate.insert(total.slice_rate.end(), part.slice_rate.begin(), part.slice_rate.end());
  total.slice_cpu_us.insert(total.slice_cpu_us.end(), part.slice_cpu_us.begin(),
                            part.slice_cpu_us.end());
}

std::uint64_t checkEnd(Bench& b) {
  const std::string err = checkReplicas(*b.sys, *b.model);
  if (err.empty()) return 0;
  std::fprintf(stderr, "ftlbench: %s\n", err.c_str());
  return 1;
}

int runEndToEnd(const Args& a, const Pool& pool) {
  std::uint64_t failed = 0;
  std::vector<double> setup_s;
  LoopResult r;
  LatencyHistogram latency;
  WalDelta wal;
  std::vector<double> calib_ms;
  // Each set-up system runs its share of the timed loop and the samples are
  // pooled, so one system's thread placement or WAL layout does not set the
  // whole run's figures.
  for (int i = 0; i < kSetups; ++i) {
    Bench b;
    const std::string wal_dir = a.scratch + "/wal-" + std::to_string(i);
    fs::remove_all(wal_dir);
    setup_s.push_back(setUp(b, pool, wal_dir, &failed));
    calib_ms.push_back(calibrationMs());
    LoopOptions opt;
    opt.seconds = a.seconds / kSetups;
    opt.corrupt_at = i == 0 ? a.corrupt_at : -1;
    opt.latency = &latency;
    wal.begin();
    accumulate(r, b.loop->run(opt));
    wal.end();
    failed += checkEnd(b);
    b.reset();
    fs::remove_all(wal_dir);
  }
  failed += r.failed;
  const auto [slice_min, slice_max] = std::minmax_element(r.slice_rate.begin(), r.slice_rate.end());
  std::printf("%s seed=%llu: %llu AGS in %.2fs, %llu latency samples, %zu slices of %.1fs "
              "(AGS/s min %.0f max %.0f)\n",
              workloadName(a.workload), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(r.attempted), r.secs,
              static_cast<unsigned long long>(latency.count()), r.slice_rate.size(),
              kSliceSeconds, *slice_min, *slice_max);
  printProvenance(a, r, wal, median(calib_ms));
  const Metrics ms = {
      {"ags_per_s", median(r.slice_rate), "1/s"},
      {"ags_p50_us", latency.quantile(0.50) / 1e3, "us"},
      {"ags_p99_us", latency.quantile(0.99) / 1e3, "us"},
      {"cpu_us_per_ags", median(r.slice_cpu_us), "us"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  printResult(failed == 0, r.attempted, failed, ms);
  return failed == 0 ? 0 : 1;
}

int runLayers(const Args& a, const Pool& pool) {
  std::uint64_t failed = 0;
  Bench b;
  const std::string wal_dir = a.scratch + "/wal-0";
  fs::remove_all(wal_dir);
  setUp(b, pool, wal_dir, &failed);

  // Untraced reference loop: call spans and WAL counter deltas.
  const double calib_ms = calibrationMs();
  WalDelta wal;
  LoopOptions ref_opt;
  ref_opt.seconds = a.seconds * 0.3;
  ref_opt.time_calls = true;
  ref_opt.corrupt_at = a.corrupt_at;
  wal.begin();
  const LoopResult ref = b.loop->run(ref_opt);
  wal.end();

  // Traced loop: sized so every thread's ring holds the whole run.
  ftl::obs::trace::clear();
  ftl::obs::trace::enable(1 << 17);
  LoopOptions tr_opt;
  tr_opt.min_stmts = 4 * kPoolSize;
  const LoopResult tr = b.loop->run(tr_opt);
  ftl::obs::trace::disable();
  const ftl::obs::assemble::TraceReport report =
      ftl::obs::assemble::analyze({ftl::obs::assemble::captureLocal(0)});
  ftl::obs::trace::clear();
  failed += ref.failed + tr.failed + checkEnd(b);
  b.reset();

  const double ref_rate = median(ref.slice_rate);
  auto stageUs = [&report](const char* stage) {
    auto it = report.stages.find(stage);
    return it == report.stages.end() ? 0.0 : it->second.meanNs() / 1e3;
  };
  Metrics ms = {
      {"ftlinda.issue_us", ref.issue_ns / 1e3, "us"},
      {"ftlinda.wait_us", ref.wait_ns / 1e3, "us"},
      {"ftlinda.issuer_busy_frac", ref.issue_ns / 1e9 * ref_rate, "ratio"},
  };
  const double layer_s = a.seconds * 0.08;
  ladderEncodeVerify(pool, layer_s, ms);
  failed += ladderApply(pool, layer_s, ms);
  ladderTupleSpace(pool, layer_s, ms);
  const double apply_batch = ladderConsul(pool, layer_s, ms);
  ms.push_back({"rsm.fsyncs_per_ags", wal.fsyncsPerAgs(ref.attempted), "count"});
  ms.push_back({"rsm.fsync_us", wal.fsyncUs(), "us"});
  ms.push_back({"rsm.wal_bytes_per_ags", wal.bytesPerAgs(ref.attempted), "B"});
  // The standalone WAL replay runs on every workload's payloads, so the rsm
  // layer is measured even where the system runs with the WAL off (durable
  // is replicate's pool with the WAL on).
  ladderWal(pool, apply_batch, a.scratch + "/ladder-wal", layer_s, ms);
  ms.push_back({"trace.verify_us", stageUs("ags.verify"), "us"});
  ms.push_back({"trace.issue_us", stageUs("ags.issue"), "us"});
  ms.push_back({"trace.order_us", stageUs("ags.order"), "us"});
  ms.push_back({"trace.apply_us", stageUs("ags.apply"), "us"});
  ms.push_back({"trace.reply_us", stageUs("ags.reply"), "us"});
  ms.push_back({"trace.coverage", report.coverage, "ratio"});
  ms.push_back({"obs.trace_overhead", ref_rate > 0 ? median(tr.slice_rate) / ref_rate : 0, "ratio"});
  ms.push_back({"host.steal_frac", ref.steal_frac, "ratio"});
  ms.push_back({"host.other_cpu_frac", ref.other_cpu_frac, "ratio"});
  ms.push_back({"host.calib_ms", calib_ms, "ms"});
  ms.push_back({"host.nivcsw_per_ags", ref.nivcsw_per_ags, "count"});

  std::printf("%s seed=%llu: reference %llu AGS in %.2fs, traced %llu AGS (%zu with e2e spans)\n",
              workloadName(a.workload), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(ref.attempted), ref.secs,
              static_cast<unsigned long long>(tr.attempted), report.ags.size());
  printProvenance(a, ref, wal, calib_ms);
  printResult(failed == 0, ref.attempted + tr.attempted, failed, ms);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ftlbench

int main(int argc, char** argv) {
  using namespace ftlbench;
  Args a;
  if (!parseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: ftlbench --workload replicate|keyed|durable --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR] [--git-sha X] [--source-digest X] "
                 "[--corrupt-reply I]\n");
    return 2;
  }
  try {
    fs::create_directories(a.scratch);
    const Pool pool = makePool(a.workload, a.seed);
    const int rc = a.trace ? runLayers(a, pool) : runEndToEnd(a, pool);
    fs::remove_all(a.scratch);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftlbench: %s\n", e.what());
    return 2;
  }
}
