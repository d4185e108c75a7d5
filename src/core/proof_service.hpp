// Concurrent proof-preparation service — the traffic-serving facade.
//
// A ProofService owns a pool of worker threads plus the keyed caches
// that make repeated jobs cheap:
//
//   * a FieldCache (MontgomeryField + NTT twiddle tables per prime),
//     shared by every session the service runs;
//   * a PrimePlan cache keyed by (proof spec, redundancy, num_primes),
//     so resubmitted or spec-identical problems skip the prime search;
//   * a CodeCache keyed by (prime, degree bound, code length, backend),
//     so spec-identical batches share one ReedSolomonCode/subproduct
//     tree instead of rebuilding both per session.
//
// Scheduling is *prime-granular*: submit() splits a job into one task
// per CRT prime, and every worker pulls tasks from one shared priority
// queue — so the primes of a single job run on several workers, and a
// worker that finishes its job's primes immediately steals another
// job's. Each task drives the full streaming pipeline for its prime
// (prepare -> streaming transport -> incremental Gao decode -> verify
// -> recover) through a StreamingSymbolChannel, overlapping stages
// that the barrier pipeline serialized.
//
// Backpressure: the submit queue can be bounded globally
// (max_pending_jobs) and per priority class (max_pending_by_priority);
// an overflowing submit() resolves its future immediately with
// JobStatus::kRejected rather than queueing unboundedly. Jobs may
// carry a deadline; a job whose deadline passes before it finishes
// resolves with JobStatus::kDeadlineExpired. Priorities order the
// queue (higher first, FIFO within a priority).
//
// Adaptive admission: once enough jobs have completed to calibrate the
// camelot_job_latency_seconds histogram, a deadline-carrying submit is
// checked against the histogram's p95 scaled by the current queue
// pressure; a job that is predicted to miss its deadline is shed at
// submit (JobStatus::kRejected) instead of burning a worker on work
// the submitter will never observe. Setting max_workers > 0 turns the
// fixed pool into an autoscaler: submit grows the pool while the task
// queue outruns the active workers, and workers that stay idle for
// autoscale_idle retire themselves down to min_workers.
//
// Every counter the service maintains lives in an obs::Registry (one
// per service, reachable via metrics()); Stats is a point-in-time view
// over that registry, and the same registry feeds the per-stage span
// histograms of every session the service runs — so one Prometheus or
// JSON scrape covers admission, queueing and stage latency together.
//
// Determinism: results depend only on (problem, config), never on
// worker interleaving, because all per-run randomness is derived from
// (config.seed, prime, stage) — see core/rng.hpp — and the streaming
// transport's delivered word is order-independent by contract.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/byzantine.hpp"
#include "core/cluster_types.hpp"
#include "core/prime_plan.hpp"
#include "core/proof_problem.hpp"
#include "field/field_cache.hpp"
#include "obs/metrics.hpp"
#include "rs/code_cache.hpp"

namespace camelot {

struct ProofServiceConfig {
  // Worker threads (0 = hardware concurrency).
  unsigned num_workers = 0;
  // Evaluation threads per session when the submitted ClusterConfig
  // leaves num_threads at 0 (the pool is the scaling axis).
  unsigned threads_per_session = 1;
  // Upper bound on jobs admitted but not yet finished (0 = unbounded).
  // When the bound is reached, submit() resolves the returned future
  // immediately with JobStatus::kRejected.
  std::size_t max_pending_jobs = 0;
  // Per-priority pending bounds: a priority with an entry here is
  // capped at that many admitted-but-unsettled jobs of the same
  // priority, so a flood of low-priority work cannot exhaust the
  // global bound and starve urgent submits. Priorities without an
  // entry fall back to max_pending_jobs alone; the global bound (when
  // nonzero) still caps the total across all priorities.
  std::map<int, std::size_t> max_pending_by_priority;
  // Latency-aware shedding, always on: when a submit carries a
  // deadline and the job-latency histogram holds at least
  // shed_min_samples completions, reject at submit if
  // p95 * (1 + pending/workers) already exceeds the deadline.
  // Calibration-gated so a fresh service (no history) never sheds.
  std::size_t shed_min_samples = 8;
  // Worker autoscaling. 0 = fixed pool of num_workers (the default);
  // otherwise the pool starts at min_workers (or num_workers, clamped
  // into [min_workers, max_workers], when num_workers is set), submit
  // grows it while queued tasks outnumber active workers, and a worker
  // idle for autoscale_idle retires itself down to min_workers.
  unsigned max_workers = 0;
  unsigned min_workers = 1;
  std::chrono::milliseconds autoscale_idle{200};
};

// Per-job scheduling knobs for ProofService::submit.
struct SubmitOptions {
  // Higher-priority jobs' tasks are scheduled first. Within a
  // priority, tasks run earliest-deadline-first (a job without a
  // deadline sorts as deadline = infinity), and FIFO by submission
  // order when deadlines tie or no job in the queue carries one.
  int priority = 0;
  // Zero = no deadline. Measured from submit() on the steady clock; a
  // job that has not finished when its deadline passes resolves with
  // JobStatus::kDeadlineExpired — checked when one of its tasks
  // reaches a worker *and* at every chunk boundary of its in-flight
  // primes (SessionCancelled propagation), so an expired job stops
  // burning workers mid-prime.
  std::chrono::milliseconds deadline{0};
  // Lossy-transport simulation: when > 0 the job's streaming channel
  // runs through an ErasureStreamingChannel at this marginal
  // per-symbol drop rate (composing with the adversary's corruption,
  // seeded by loss_seed), so the job's primes exercise selective
  // repair under the scheduler — bounded by the submitted
  // ClusterConfig::repair_budget.
  double loss_rate = 0.0;
  u64 loss_seed = 0;
};

class ProofService {
 public:
  explicit ProofService(ProofServiceConfig config = {});
  // Drains every queued job, then joins the workers.
  ~ProofService();

  ProofService(const ProofService&) = delete;
  ProofService& operator=(const ProofService&) = delete;

  // Enqueues one problem. The problem (and adversary, if any) are
  // held alive by the job via shared_ptr. Throws std::runtime_error
  // after shutdown began. Never throws on overload: a rejected job's
  // future resolves at once with JobStatus::kRejected (success=false).
  std::future<RunReport> submit(
      std::shared_ptr<const CamelotProblem> problem,
      ClusterConfig config = {},
      std::shared_ptr<const ByzantineAdversary> adversary = nullptr,
      SubmitOptions options = {});

  // The per-prime field cache shared by every session of this service.
  const std::shared_ptr<FieldCache>& field_cache() const noexcept {
    return cache_;
  }
  // The (prime, d, e) Reed--Solomon code cache shared across jobs.
  const std::shared_ptr<CodeCache>& code_cache() const noexcept {
    return codes_;
  }

  // Point-in-time view over the service's metrics registry (see
  // metrics()); every field is backed by a named counter or gauge
  // there, so a Prometheus/JSON scrape and a stats() call agree.
  struct Stats {
    std::size_t submitted = 0;  // admitted jobs (excludes rejections)
    std::size_t completed = 0;  // jobs that ran to completion
    std::size_t rejected = 0;   // bound or shed rejections (total)
    std::size_t expired = 0;    // legacy view: expired_queued +
                                // cancelled_inflight
    std::size_t plan_cache_hits = 0;
    std::size_t plan_cache_misses = 0;
    // Largest number of per-prime tasks ever resident in the queue —
    // the capacity-planning signal for num_workers/max_pending_jobs.
    std::size_t queue_depth_high_water = 0;
    // Deadline expiries split by where the job was caught: still
    // queued (no work lost) vs cancelled mid-prime (partial work
    // thrown away). Their sum is the legacy `expired`.
    std::size_t expired_queued = 0;
    std::size_t cancelled_inflight = 0;
    // Rejections from predictive shedding specifically (also counted
    // in `rejected`).
    std::size_t shed_infeasible = 0;
    // Autoscaler observability: current pool size and the largest it
    // ever grew.
    std::size_t workers_active = 0;
    std::size_t workers_peak = 0;
    // Gao-decoder work aggregated over completed jobs' primes:
    // genuine Euclidean quotient steps, and entries into the half-GCD
    // routine (one per decode when the remainder sequence stays below
    // the crossover, more when the recursive cascade engages). The
    // ratio steps/calls is the dense-error signal a deployment watches
    // when tuning CAMELOT_HGCD_CROSSOVER.
    std::size_t decode_quotient_steps = 0;
    std::size_t decode_hgcd_calls = 0;
    // Selective-repair work aggregated over completed jobs' primes:
    // repair rounds entered and symbols re-pushed after erasure
    // shortfalls (0 unless submits carry a loss_rate).
    std::size_t repair_rounds = 0;
    std::size_t repaired_symbols = 0;
    // Snapshots of the shared caches (same objects reachable through
    // field_cache()/code_cache(), surfaced here so one stats() call
    // is a complete metrics scrape).
    FieldCache::Stats field_cache;
    CodeCache::Stats code_cache;
  };
  Stats stats() const;

  // The service's metrics registry: admission/queue counters, the
  // camelot_job_latency_seconds histogram the shedder predicts from,
  // and the per-stage span histograms of every session this service
  // runs. Render it with obs::render_prometheus / obs::render_json.
  const std::shared_ptr<obs::Registry>& metrics() const noexcept {
    return metrics_;
  }

 private:
  struct Job;
  struct Task {
    int priority = 0;
    std::uint64_t seq = 0;  // admission order (FIFO within priority)
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    std::size_t prime_index = 0;
    std::shared_ptr<Job> job;
  };
  struct TaskOrder {
    bool operator()(const Task& a, const Task& b) const {
      // priority_queue pops the *largest*: highest priority first;
      // within a priority, earliest deadline first (no deadline =
      // infinitely late, so a pure-FIFO workload stays FIFO); then
      // earliest admission, then ascending prime index.
      if (a.priority != b.priority) return a.priority < b.priority;
      if (a.has_deadline != b.has_deadline) return !a.has_deadline;
      if (a.has_deadline && a.deadline != b.deadline) {
        return a.deadline > b.deadline;
      }
      if (a.seq != b.seq) return a.seq > b.seq;
      return a.prime_index > b.prime_index;
    }
  };

  std::shared_ptr<const PrimePlan> plan_for(const ProofSpec& spec,
                                            const ClusterConfig& config);
  void worker_loop(std::uint64_t worker_id);
  void run_task(const Task& task);
  void spawn_worker_locked();
  void settle_pending_locked(int priority);
  void reap_retired();

  ProofServiceConfig config_;
  std::shared_ptr<FieldCache> cache_;
  std::shared_ptr<CodeCache> codes_;

  // Registry plus pre-resolved metric handles (stable addresses, so
  // the hot paths below never take the registry lock).
  std::shared_ptr<obs::Registry> metrics_;
  obs::Counter* jobs_submitted_ = nullptr;
  obs::Counter* jobs_completed_ = nullptr;
  obs::Counter* jobs_rejected_ = nullptr;
  obs::Counter* jobs_shed_infeasible_ = nullptr;
  obs::Counter* jobs_expired_queued_ = nullptr;
  obs::Counter* jobs_cancelled_inflight_ = nullptr;
  obs::Counter* plan_cache_hits_ = nullptr;
  obs::Counter* plan_cache_misses_ = nullptr;
  obs::Counter* decode_quotient_steps_ = nullptr;
  obs::Counter* decode_hgcd_calls_ = nullptr;
  obs::Counter* repair_rounds_ = nullptr;
  obs::Counter* repaired_symbols_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* queue_depth_high_water_ = nullptr;
  obs::Gauge* workers_active_gauge_ = nullptr;
  obs::Gauge* workers_peak_ = nullptr;
  obs::Histogram* job_latency_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::priority_queue<Task, std::vector<Task>, TaskOrder> tasks_;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_jobs_ = 0;  // admitted, not yet settled
  std::map<int, std::size_t> pending_by_priority_;
  std::unordered_map<std::string, std::shared_ptr<const PrimePlan>> plans_;

  // Worker pool. Keyed by id so an autoscaled worker can retire its
  // own thread object into retired_ (joined later off-thread by
  // submit()/the dtor); a fixed pool (max_workers == 0) never retires.
  std::uint64_t next_worker_id_ = 0;
  std::size_t active_workers_ = 0;
  std::unordered_map<std::uint64_t, std::thread> workers_;
  std::vector<std::thread> retired_;
};

}  // namespace camelot
