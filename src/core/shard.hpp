// Sharded multi-process Round Table: a coordinator partitions one
// job's PrimePlan across N shard worker processes, each of which runs
// the full per-prime streaming pipeline (prepare -> erasure/adversary
// transport -> decode -> verify -> recover) for its assigned primes
// and ships the settled PrimeRunReports back over a pipe.
//
// The wire protocol is deliberately minimal: length-prefixed binary
// frames (u32 LE payload length, then a one-byte ShardFrame tag) over
// the worker's stdin/stdout. A worker is sequential — it reads one
// frame, handles it to completion, answers, and reads the next — so
// the coordinator can queue a retry submit at a busy survivor and the
// pipe buffers it until the survivor is free. Both readers reject a
// header over a fixed frame-size cap before allocating: the worker
// answers kError and exits 1, and the coordinator marks the shard
// dead and retries its primes on the survivors.
//
// Determinism: a shard recomputes the PrimePlan from the job spec with
// the same plan_primes call the coordinator (and a single-process
// ProofSession) uses, and every per-prime pipeline draws its
// randomness from derive_stream(seed, prime, stage) exactly as a
// local run would. The coordinator's assembled RunReport is therefore
// bit-identical (timing fields aside) to ProofSession::run_streaming
// on the same (problem, config, channel) in one process — including
// under erasure loss with selective repair — no matter how the primes
// were partitioned or how many shards died and were retried along the
// way.
//
// Observability: the coordinator owns a Registry with per-shard
// bandwidth gauges (camelot_shard_bandwidth_bytes_shard<i>, total
// frame bytes exchanged with that worker) and retry counters; each
// worker owns a private Registry its sessions' stage histograms and
// job latency land in. fleet_snapshot() scrapes every live worker
// (kObsRequest -> render_json -> parse_json_snapshot) and folds the
// parsed snapshots into the coordinator's own via merge_snapshot, so
// one scrape covers the whole fleet.
#pragma once

#include <sys/types.h>

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/byzantine.hpp"
#include "core/cluster_types.hpp"
#include "core/proof_problem.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace camelot {

// Frame tags. Every frame is u32 LE payload length followed by the
// payload, whose first byte is the tag.
enum class ShardFrame : unsigned char {
  kSubmit = 1,       // coordinator -> worker: job + assigned prime indices
  kPrimeReport = 2,  // worker -> coordinator: one settled prime
  kSubmitDone = 3,   // worker -> coordinator: every assigned prime settled
  kObsRequest = 4,   // coordinator -> worker: scrape me
  kObsSnapshot = 5,  // worker -> coordinator: render_json of my registry
  kShutdown = 6,     // coordinator -> worker: exit cleanly
  kError = 7,        // worker -> coordinator: fatal error text, then exit
};

// Everything a worker needs to reconstruct the job: the problem comes
// from a factory spec string (the worker cannot share pointers with
// the coordinator), the channel stack from the loss/adversary fields.
struct ShardJob {
  // Problem factory spec, e.g. "triangle:<n>:<m>:<seed>" — see
  // make_problem_from_spec.
  std::string problem_spec;
  ClusterConfig config;
  // Erasure transport: fraction of codeword positions dropped per
  // round (0 = lossless wire) and the loss schedule seed.
  double loss_rate = 0.0;
  u64 loss_seed = 0;
  // Optional byzantine adversary corrupting the broadcast under the
  // erasure layer (loss composes with corruption).
  bool adversary = false;
  std::vector<std::size_t> corrupt_nodes;
  ByzantineStrategy strategy = ByzantineStrategy::kSilent;
  u64 adversary_seed = 0;
};

// Builds a problem from its wire spec. Supported specs:
//   triangle:<n>:<m>:<seed>       — triangle counting on gnm(n, m, seed)
//                                   with the Strassen decomposition.
//   clique:<n>:<m>:<k>:<seed>     — k-clique counting (6 | k) on
//                                   gnm(n, m, seed), Strassen
//                                   decomposition.
//   ov:<n>:<t>:<density>:<seed>   — orthogonal vectors on two random
//                                   n x t boolean matrices (seeds
//                                   seed and seed+1).
// Throws std::invalid_argument on anything else. The returned problem
// is self-contained (no reference to transient inputs).
std::unique_ptr<CamelotProblem> make_problem_from_spec(
    const std::string& spec);

// Worker entry point (the whole of shardd behind argv parsing): frame
// loop over [in_fd, out_fd] until kShutdown or EOF. When
// crash_after_primes > 0 the worker hard-exits (_exit) after settling
// that many primes — the fault-injection hook the coordinator retry
// path and its tests exercise. Returns the process exit code.
int run_shard_worker(int in_fd, int out_fd,
                     std::size_t crash_after_primes = 0);

struct ShardOptions {
  std::size_t num_shards = 2;
  // Path to the shardd binary. Empty resolves $CAMELOT_SHARDD, then
  // "./shardd" (the build-tree layout).
  std::string shardd_path;
  // Registry the coordinator's own metrics (bandwidth gauges, retry
  // counters, job latency) land in; nullptr = private registry.
  std::shared_ptr<obs::Registry> metrics;
  // Fault injection: worker `crash_shard` exits after settling
  // `crash_after_primes` primes (SIZE_MAX / 0 = disabled).
  std::size_t crash_shard = static_cast<std::size_t>(-1);
  std::size_t crash_after_primes = 0;
};

class ShardCoordinator {
 public:
  explicit ShardCoordinator(ShardOptions options);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  // Runs one job across the fleet: round-robin partition of the
  // PrimePlan, dispatch, collect, redistribute a dead shard's
  // unfinished primes over the survivors, then assemble the RunReport
  // through assemble_report, as ProofSession::report() does (CRT
  // across primes, node stats summed). A shard that crashes or breaks
  // the wire protocol (over-cap header, truncated payload, unknown
  // tag, prime index out of range) is killed and counts as dead.
  // Throws std::runtime_error when every shard died before the job
  // settled.
  RunReport run(const ShardJob& job);

  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t live_shards() const noexcept;
  // Primes re-dispatched to a survivor after their shard died.
  std::size_t retried_primes() const noexcept { return retried_primes_; }

  obs::Registry& metrics() noexcept { return *metrics_; }

  // Fleet scrape: the coordinator's own snapshot with every live
  // worker's scrape (requested over the wire, parsed from JSON)
  // merged in. The merged histograms' bins are the element-wise sums
  // of the per-process bins.
  obs::Registry::Snapshot fleet_snapshot();
  std::string fleet_prometheus();
  std::string fleet_json();
  // Raw per-shard render_json payloads from the last fleet_snapshot()
  // call (empty string for dead shards) — lets callers print or audit
  // the per-process scrapes the rollup was built from.
  const std::vector<std::string>& last_shard_scrapes() const noexcept {
    return last_scrapes_;
  }

 private:
  struct Shard {
    pid_t pid = -1;
    int to_fd = -1;    // coordinator -> worker (worker stdin)
    int from_fd = -1;  // worker -> coordinator (worker stdout)
    bool alive = false;
    std::string rbuf;      // partial-frame read buffer
    std::size_t rpos = 0;  // consumed prefix of rbuf
    // Prime indices dispatched to this worker and not yet reported.
    std::deque<std::size_t> pending;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    obs::Gauge* bandwidth = nullptr;
  };

  void spawn(std::size_t index);
  void send_frame(Shard& s, const std::string& payload);
  // Drains readable bytes into s.rbuf; returns false on EOF/error.
  bool pump(Shard& s);
  // Extracts one complete frame payload from s.rbuf if present; marks
  // the shard dead on a header over the frame-size cap.
  std::optional<std::string> take_frame(Shard& s);
  // SIGKILLs and reaps the worker (an off-protocol worker may never
  // exit on its own), closes its stdin; idempotent.
  void mark_dead(Shard& s);
  void update_bandwidth(Shard& s);

  ShardOptions options_;
  std::shared_ptr<obs::Registry> metrics_;
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* deaths_counter_ = nullptr;
  obs::Histogram* job_latency_ = nullptr;
  std::vector<Shard> shards_;
  std::vector<std::string> last_scrapes_;
  std::size_t retried_primes_ = 0;
};

}  // namespace camelot
