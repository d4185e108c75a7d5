// Shared types of the Camelot benchmark driver: the seeded job pools
// each workload submits, the reference answers every report is checked
// against, the span recorder of the traced run, and the staged
// per-layer probe.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster_types.hpp"
#include "core/proof_problem.hpp"
#include "field/bigint.hpp"

namespace perfbench {

using camelot::BigInt;
using camelot::ClusterConfig;
using camelot::RunReport;
using camelot::u64;
using Clock = std::chrono::steady_clock;

// Heap allocations counted by the operator-new interposition
// (alloc_count.cpp) while g_count_allocs is set.
extern std::atomic<bool> g_count_allocs;
extern std::atomic<std::uint64_t> g_heap_allocs;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// splitmix64: every input of a run is a pure function of --seed.
inline u64 mix_seed(u64 seed, u64 salt) {
  u64 z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// One job of a workload's pool: the spec string the system sees, its
// cluster configuration and channel, and the answers a sequential
// reference computed for it.
struct JobSpec {
  std::string spec;   // make_problem_from_spec string
  std::string shape;  // "clique", "ov" or "triangle"
  ClusterConfig config;
  double loss_rate = 0.0;
  u64 loss_seed = 0;
  std::vector<std::size_t> corrupt_nodes;  // sorted; empty = honest
  u64 adversary_seed = 0;
  std::vector<BigInt> expected;  // reference answers (CamelotProblem units)
  double reference_seconds = 0.0;
};

enum class DriverKind {
  kServiceClosed,  // ProofService, `clients` callers each awaiting its job
  kServiceOpen,    // ProofService, seeded Poisson arrivals
  kFleet,          // ShardCoordinator, one synchronous caller
};

struct Workload {
  std::string name;
  DriverKind driver = DriverKind::kServiceClosed;
  unsigned clients = 1;
  double arrival_rate = 0.0;  // jobs/s, open loop only
  // Layer predicted to dominate the traced job (see README.md).
  std::string predicted_layer;
  std::vector<JobSpec> pool;
};

// The benchmark's workloads; throws std::invalid_argument on an
// unknown name.
Workload make_workload(const std::string& name, u64 seed);

// Fills every pool entry's expected answers with the plain sequential
// counters (Nesetril-Poljak, Itai-Rodeh, brute-force OV) and records
// how long each took.
void compute_references(Workload& w);

// A verified report that disagrees with the reference (answers, or the
// implicated node set) — the run aborts.
class SoundnessViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// True iff the report is verified and correct; false for an honest
// failure (rejection, decode failure, exhausted repair). Throws
// SoundnessViolation for a verified wrong answer.
bool check_report(const JobSpec& job, const RunReport& report);

// In-memory span recorder: name, start, end, parent and job id, kept
// until the run ends and written out then.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    u64 job = 0;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  int begin(std::string name, int parent, u64 job);
  void end(int id);
  // Duration minus the union of the children's intervals.
  double self_seconds(int id) const;
  double duration(int id) const;
  void write_json(std::FILE* out) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, int parent, u64 job)
      : t_(t), id_(t.begin(std::move(name), parent, job)) {}
  ~ScopedSpan() { t_.end(id_); }
  int id() const noexcept { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// One job through the staged ProofSession per-prime calls (spans:
// job -> prime -> stage), followed by direct calls into the layers on
// the same instance (a separate "probe" root span, outside the job's
// wall time). Times are seconds per job unless noted.
struct StagedSample {
  bool ok = false;
  double job_wall = 0.0;
  double construct = 0.0;
  double prepare = 0.0, transport = 0.0, decode = 0.0, verify = 0.0,
         recover = 0.0, crt = 0.0;
  double coverage = 0.0;  // sum of stage self-times / job wall
  double max_node_prepare = 0.0;
  double node_imbalance = 0.0;  // max / mean node seconds
  double quotient_steps = 0.0, hgcd_calls = 0.0;
  // Direct layer calls.
  double plan_primes = 0.0, code_build = 0.0, evaluate = 0.0, encode = 0.0,
         gao_decode = 0.0;
  double matmul_per_call = -1.0;  // < 0: the job makes no such call
  double yates_per_call = -1.0;
};
// Builds the field tables and RS codes a staged job of this shape uses
// in the process-wide caches, so staged jobs measure the steady state.
void warm_staged_caches(const JobSpec& job);
StagedSample run_staged_job(const JobSpec& job, Tracer& tracer, u64 job_id);

}  // namespace perfbench
