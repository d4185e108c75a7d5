// Observability core: a lock-cheap registry of named counters, gauges
// and fixed-bucket latency histograms (ROADMAP "Observability +
// adaptive admission").
//
// Design constraints, in order:
//
//   * Updates are on the serving hot path (every stage of every prime
//     of every job), so they must be wait-free: one relaxed atomic RMW
//     for counters/gauges, a branchless bucket search plus two relaxed
//     RMWs for histograms. No update ever takes the registry lock —
//     callers resolve a metric to a stable pointer once (the registry
//     never deletes or moves a metric) and hammer the atomics after.
//
//   * Scrapes must be torn-free where it matters: a counter read is a
//     single atomic load (monotone across reads by construction), and
//     a histogram's count is *defined* as the sum of its bins rather
//     than stored separately, so "total == count" holds on every
//     snapshot no matter how many writers race the scraper. (The sum
//     field is informational — mean latency — and is the one quantity
//     a racing scrape may see slightly behind the bins.)
//
//   * Histograms are mergeable: snapshots of bucket-compatible
//     histograms add and subtract, which is how bench_service windows
//     "just this batch" out of a service-lifetime histogram and how a
//     sharded deployment would roll per-process snapshots up.
//
// Exporters (Prometheus text, JSON) live in obs/export.hpp; span
// timers and category tracing in obs/trace.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace camelot {
namespace obs {

// Monotone event count. Wait-free inc; a read is one atomic load, so
// two successive reads can never observe a decrease.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Instantaneous level (queue depth, resident workers). `max_of` is the
// high-water idiom: a lock-free CAS raise that never lowers.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  void max_of(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Fixed-bucket latency histogram in seconds. Bucket i counts
// observations <= bounds[i]; one implicit +inf bucket catches the
// tail. The per-observation cost is a branchless upper_bound over a
// small sorted array plus two relaxed fetch_adds.
class Histogram {
 public:
  // `bounds` must be sorted ascending and non-empty; values are upper
  // bucket edges in seconds.
  explicit Histogram(std::vector<double> bounds);

  void observe(double seconds) noexcept;

  // A consistent-enough copy of the bins (each bin torn-free, the set
  // of bins read while writers race — acceptable for latency
  // distributions; count() is always exactly the sum of what was
  // read). Snapshots of bucket-identical histograms add and subtract.
  struct Snapshot {
    std::vector<double> bounds;        // upper edges, +inf implicit
    std::vector<std::uint64_t> bins;   // size bounds.size() + 1
    double sum_seconds = 0.0;

    std::uint64_t count() const noexcept;
    // Bucket-interpolated quantile (q in [0,1]); 0 when empty. The
    // +inf bucket clamps to the last finite bound.
    double quantile(double q) const noexcept;
    double mean() const noexcept;
    // This snapshot minus an earlier one of the same histogram — the
    // windowing primitive (bench_service measures one batch of an
    // otherwise long-lived service this way).
    Snapshot delta_since(const Snapshot& earlier) const;
    void merge(const Snapshot& other);
  };
  Snapshot snapshot() const;

  const std::vector<double>& bounds() const noexcept { return bounds_; }

  // 1-2-5 ladder from 100us to 10s — sized for submit->settle job
  // latencies and per-stage span times under the service.
  static std::vector<double> default_latency_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> bins_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> sum_ns_{0};
};

// Named metric registry. Lookup (name -> metric) takes a mutex and is
// meant for setup paths; the returned references are stable for the
// registry's lifetime, so steady-state updates never lock. Metric
// names follow the Prometheus convention (snake_case, *_total for
// counters, *_seconds for histograms).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // First call fixes the bounds (default_latency_bounds() when empty);
  // later calls with different bounds get the existing histogram.
  Histogram& histogram(std::string_view name,
                       std::vector<double> bounds = {});

  // Consistent-scrape view for the exporters: every metric name with
  // its current value/snapshot, sorted by name.
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };
  Snapshot snapshot() const;

  // Process-wide default registry: sessions constructed without an
  // injected registry (stand-alone ProofSession runs, the benches and
  // examples) record their stage spans here, mirroring
  // FieldCache::global()/CodeCache::global().
  static const std::shared_ptr<Registry>& global();

 private:
  mutable std::mutex mu_;
  // node-based maps: metric addresses stay stable across inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace obs
}  // namespace camelot
