// The closed loop: one issuer thread cycling a workload's pool through
// Runtime::executeAsync with kWindow futures outstanding, checking every
// reply against the Model. The loop only calls executeAsync and get();
// latency is stamped by a then() continuation on the settling thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "workload.hpp"

namespace ftlbench {

class LatencyHistogram;

struct LoopOptions {
  double seconds = 0;           // run at least this long ...
  std::size_t min_stmts = 0;    // ... or at least this many statements
  bool time_calls = false;      // span every executeAsync and get() call
  std::int64_t corrupt_at = -1; // self-test: corrupt this reply before checking it
  /// When set, a then() continuation records each AGS's latency here; the
  /// run returns only after every continuation has.
  LatencyHistogram* latency = nullptr;
};

struct LoopResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double secs = 0;
  std::vector<double> slice_rate;       // AGS/s of each kSliceSeconds slice
  std::vector<double> slice_cpu_us;      // process CPU us per AGS of each slice
  double issue_ns = 0;                   // mean executeAsync span (time_calls)
  double wait_ns = 0;                    // mean get() span (time_calls)
  double steal_frac = 0;                 // hypervisor steal share, /proc/stat
  double other_cpu_frac = 0;             // CPU share used by other processes
  double nivcsw_per_ags = 0;             // involuntary context switches per AGS
};

/// Latencies recorded by then() continuations: on the settling thread, or
/// inline on the issuer when a future settled before then() was attached.
/// Fixed 32 ns buckets up to ~34 ms (the last bucket takes the overflow),
/// so the harness's memory is the same however long it runs and
/// peak_rss_mb measures the system.
class LatencyHistogram {
 public:
  static constexpr std::uint64_t kWidthNs = 32;
  static constexpr std::size_t kBuckets = std::size_t{1} << 20;

  LatencyHistogram();
  void add(std::int64_t ns);
  std::uint64_t count() const { return count_.load(std::memory_order_acquire); }
  /// Waits (bounded) until `n` samples are in: the last continuations may
  /// still be running when the issuer's final get() returns.
  bool waitFor(std::uint64_t n) const;
  /// q in (0, 1], in nanoseconds.
  double quantile(double q) const;

 private:
  std::vector<std::atomic<std::uint32_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
};

class ClosedLoop {
 public:
  ClosedLoop(ftl::ftlinda::Runtime& rt, const Pool& pool, Model& model)
      : rt_(rt), pool_(pool), model_(model) {}

  /// Runs until both limits in `opt` are met and the pool cursor sits at a
  /// safe point, then drains the window. Consecutive runs continue the
  /// pool where the previous one stopped.
  LoopResult run(const LoopOptions& opt);

 private:
  ftl::ftlinda::Runtime& rt_;
  const Pool& pool_;
  Model& model_;
  std::size_t cursor_ = 0;
};

constexpr double kSliceSeconds = 0.5;

double median(std::vector<double> v);
double processCpuSeconds();
/// Milliseconds one thread takes for a fixed table-lookup loop that fits in
/// L2. It does not touch the system under test, so it shows how fast the
/// machine itself ran: the guest sees no steal when the host's other
/// tenants share its cores and caches, but this loop slows down.
double calibrationMs();
double peakRssMb();

}  // namespace ftlbench
