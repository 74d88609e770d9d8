#include "loop.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <string>
#include <thread>

namespace ftlbench {

using namespace ftl::ftlinda;
using ftl::nowNanos;

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets) {}

void LatencyHistogram::add(std::int64_t ns) {
  const auto b = std::min<std::uint64_t>(static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0)) /
                                             kWidthNs,
                                         kBuckets - 1);
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_release);
}

bool LatencyHistogram::waitFor(std::uint64_t n) const {
  const std::int64_t deadline = nowNanos() + 10'000'000'000;
  while (count_.load(std::memory_order_acquire) < n) {
    if (nowNanos() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

double LatencyHistogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  // Nearest rank, interpolated linearly inside its bucket.
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(n)));
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c > 0 && static_cast<double>(below + c) >= rank) {
      const double within = (rank - static_cast<double>(below) - 0.5) / static_cast<double>(c);
      return (static_cast<double>(i) + within) * kWidthNs;
    }
    below += c;
  }
  return static_cast<double>(kBuckets) * kWidthNs;
}

namespace {

struct InFlight {
  AgsFuture fut;
  const Stmt* stmt = nullptr;
  std::int64_t expected = 0;
};

/// Machine-wide CPU time from the first line of /proc/stat, in clock ticks:
/// cpu user nice system idle iowait irq softirq steal ...
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t idle = 0;  // idle + iowait
  std::uint64_t total = 0;
};

HostCpu readHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostCpu s;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    s.total += v;
    if (i == 3 || i == 4) s.idle += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

long involuntarySwitches() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

volatile std::uint32_t calibration_sink = 0;  // keeps calibrationMs's loop live

void corruptReply(ftl::Result<Reply>& r) {
  if (!r.ok()) return;
  Reply& rep = r.value();
  rep.op_status.assign(rep.op_status.size(), false);
  rep.guard_tuple = ftl::tuple::makeTuple("corrupt", std::int64_t{-1});
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double processCpuSeconds() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double calibrationMs() {
  std::vector<std::uint32_t> table(1 << 16);
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = static_cast<std::uint32_t>(i * 2654435761u);
  const std::int64_t t0 = nowNanos();
  std::uint32_t x = 1;
  for (int i = 0; i < 20'000'000; ++i) x = table[x & 0xffff] ^ (x * 747796405u + 2891336453u);
  const std::int64_t t1 = nowNanos();
  calibration_sink = x;
  return static_cast<double>(t1 - t0) / 1e6;
}

double peakRssMb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

LoopResult ClosedLoop::run(const LoopOptions& opt) {
  LoopResult res;
  LatencyHistogram* latency = opt.latency;
  const std::uint64_t latency0 = latency ? latency->count() : 0;
  std::deque<InFlight> window;
  std::uint64_t completed = 0;
  double issue_sum = 0, wait_sum = 0;

  auto retire = [&] {
    InFlight f = std::move(window.front());
    window.pop_front();
    const std::int64_t w0 = opt.time_calls ? nowNanos() : 0;
    ftl::Result<Reply> r = f.fut.get();
    if (opt.time_calls) wait_sum += static_cast<double>(nowNanos() - w0);
    if (static_cast<std::int64_t>(completed) == opt.corrupt_at) corruptReply(r);
    if (!replyOk(*f.stmt, f.expected, r)) {
      if (++res.failed <= 3) {
        std::fprintf(stderr, "ftlbench: wrong reply to %s\n", f.stmt->ags.toString().c_str());
      }
    }
    ++completed;
  };

  const HostCpu host0 = readHostCpu();
  const double cpu0 = processCpuSeconds();
  const long nivcsw0 = involuntarySwitches();
  const std::int64_t t_start = nowNanos();
  const auto deadline = t_start + static_cast<std::int64_t>(opt.seconds * 1e9);
  const auto slice_ns = static_cast<std::int64_t>(kSliceSeconds * 1e9);
  std::int64_t slice_start = t_start;
  std::uint64_t slice_done = 0;
  double slice_cpu = processCpuSeconds();
  bool limits_met = false;

  for (std::uint64_t n = 0;; ++n) {
    if (limits_met || (n & 15) == 0) {
      const std::int64_t now = nowNanos();
      if (now - slice_start >= slice_ns) {
        const double cpu = processCpuSeconds();
        const auto done = static_cast<double>(completed - slice_done);
        if (done > 0) {
          res.slice_rate.push_back(done * 1e9 / static_cast<double>(now - slice_start));
          res.slice_cpu_us.push_back((cpu - slice_cpu) * 1e6 / done);
        }
        slice_start = now;
        slice_done = completed;
        slice_cpu = cpu;
      }
      limits_met = now >= deadline && n >= opt.min_stmts;
      if (limits_met && pool_.safe[cursor_]) break;
    }
    if (window.size() >= kWindow) retire();
    const Stmt& s = pool_.stmts[cursor_];
    cursor_ = (cursor_ + 1) % pool_.stmts.size();
    const std::int64_t expected = model_.expect(s);
    const std::int64_t t0 = nowNanos();
    AgsFuture fut = rt_.executeAsync(s.ags);
    if (opt.time_calls) issue_sum += static_cast<double>(nowNanos() - t0);
    if (latency) {
      fut.then([latency, t0](const ftl::Result<Reply>&) { latency->add(nowNanos() - t0); });
    }
    window.push_back(InFlight{std::move(fut), &s, expected});
    ++res.attempted;
  }
  while (!window.empty()) retire();
  const std::int64_t t_end = nowNanos();
  if (latency && !latency->waitFor(latency0 + res.attempted)) {
    std::fprintf(stderr, "ftlbench: a future settled without running its continuation\n");
    ++res.failed;
  }
  res.secs = static_cast<double>(t_end - t_start) / 1e9;
  // A run shorter than one slice still yields one whole-run sample.
  if (res.slice_rate.empty() && completed > 0) {
    res.slice_rate.push_back(static_cast<double>(completed) / res.secs);
    res.slice_cpu_us.push_back((processCpuSeconds() - slice_cpu) * 1e6 /
                               static_cast<double>(completed));
  }
  if (res.attempted > 0) {
    const auto n = static_cast<double>(res.attempted);
    res.issue_ns = issue_sum / n;
    res.wait_ns = wait_sum / n;
    res.nivcsw_per_ags = static_cast<double>(involuntarySwitches() - nivcsw0) / n;
  }
  const HostCpu host1 = readHostCpu();
  if (host1.total > host0.total) {
    const auto total = static_cast<double>(host1.total - host0.total);
    res.steal_frac = static_cast<double>(host1.steal - host0.steal) / total;
    // Busy share of all CPUs minus this process's own share: load from
    // other processes on the machine, which steal does not show.
    const double busy = 1.0 - static_cast<double>(host1.idle - host0.idle) / total;
    const double own = (processCpuSeconds() - cpu0) /
                       (res.secs * std::max(1u, std::thread::hardware_concurrency()));
    res.other_cpu_frac = std::max(0.0, busy - own);
  }
  return res;
}

}  // namespace ftlbench
