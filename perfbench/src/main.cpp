// Camelot end-to-end benchmark driver.
//
//   camelot_perfbench --workload <clique6|ov_byzantine|service_mix>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --shardd <path> --out-dir <dir>
//
// Sets the system up several times (setup_s is the median), drives the
// workload through ProofService::submit or ShardCoordinator::run for
// --seconds, checks every report against a sequential reference, and
// prints the metrics. --trace 0 prints the end-to-end metrics; --trace 1
// splits the time into an untraced window, a traced window (job spans,
// allocation counting) and staged per-layer jobs, and prints the
// per-layer metrics. The last stdout line is one JSON object; per-job
// latencies, spans and the host fingerprint go to
// <out-dir>/<workload>-seed<seed>-trace<t>.json.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/byzantine.hpp"
#include "core/proof_service.hpp"
#include "core/shard.hpp"
#include "field/field_ops.hpp"
#include "field/montgomery_avx512.hpp"
#include "field/primes.hpp"
#include "obs/metrics.hpp"
#include "poly/ntt.hpp"

namespace perfbench {
namespace {

using namespace camelot;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string shardd = "./shardd";
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--shardd") {
      a.shardd = v;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) {
    throw std::invalid_argument("need --workload and --seconds > 0");
  }
  return a;
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double maxrss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const char* backend_name(FieldBackend b) {
  switch (b) {
    case FieldBackend::kMontgomery: return "montgomery-scalar";
    case FieldBackend::kPrimeDivision: return "division";
    case FieldBackend::kMontgomeryAvx2: return "montgomery-avx2";
    case FieldBackend::kMontgomeryAvx512: return "montgomery-avx512";
  }
  return "unknown";
}

// Host fingerprint: core count, resolved backend per prime width, IFMA
// and Shoup selection, and any CAMELOT_* override in the environment.
std::string host_fingerprint(unsigned nproc) {
  const u64 narrow = next_prime(u64{1} << 30);
  const u64 wide = next_prime(u64{1} << 40);
  const FieldOps narrow_ops(PrimeField(narrow), best_backend());
  const FieldOps wide_ops(PrimeField(wide), best_backend());
  bool ifma = false;
  if (narrow_ops.backend() == FieldBackend::kMontgomeryAvx512) {
    ifma = MontgomeryAvx512Field(narrow_ops.mont()).ifma();
  }
  std::string env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CAMELOT_", 8) == 0) {
      std::string kv = *e;
      for (char& c : kv) {
        if (c == '"' || c == '\\') c = '_';
      }
      env += (env.empty() ? "\"" : ", \"") + kv + "\"";
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"backend_narrow_q\": \"%s\", "
                "\"backend_wide_q\": \"%s\", \"ifma\": %s, \"shoup\": %s, "
                "\"camelot_env\": [",
                nproc, backend_name(narrow_ops.backend()),
                backend_name(wide_ops.backend()), ifma ? "true" : "false",
                ntt_shoup_enabled() ? "true" : "false");
  return std::string(buf) + env + "]}";
}

// ---- System under test ------------------------------------------------------

class Target {
 public:
  Target() = default;
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;
  virtual ~Target() = default;
  // One job, synchronously; safe to call from several threads.
  virtual RunReport run(std::size_t index) = 0;
};

ProofServiceConfig service_config(unsigned workers) {
  ProofServiceConfig c;
  c.num_workers = workers;
  return c;
}

ShardOptions shard_options(unsigned shards, const std::string& shardd) {
  ShardOptions o;
  o.num_shards = shards;
  o.shardd_path = shardd;
  return o;
}

class ServiceTarget final : public Target {
 public:
  ServiceTarget(const Workload& w, unsigned workers)
      : w_(w), service_(service_config(workers)) {
    for (const JobSpec& j : w.pool) {
      problems_.push_back(make_problem_from_spec(j.spec));
      adversaries_.push_back(
          j.corrupt_nodes.empty()
              ? nullptr
              : std::make_shared<const ByzantineAdversary>(
                    j.corrupt_nodes, ByzantineStrategy::kRandom,
                    j.adversary_seed));
    }
  }

  std::future<RunReport> submit(std::size_t index) {
    const JobSpec& j = w_.pool[index];
    SubmitOptions opts;
    opts.loss_rate = j.loss_rate;
    opts.loss_seed = j.loss_seed;
    return service_.submit(problems_[index], j.config, adversaries_[index],
                           opts);
  }
  RunReport run(std::size_t index) override { return submit(index).get(); }
  ProofService& service() { return service_; }

 private:
  const Workload& w_;
  ProofService service_;
  std::vector<std::shared_ptr<const CamelotProblem>> problems_;
  std::vector<std::shared_ptr<const ByzantineAdversary>> adversaries_;
};

class FleetTarget final : public Target {
 public:
  FleetTarget(const Workload& w, unsigned shards, const std::string& shardd)
      : w_(w), coordinator_(shard_options(shards, shardd)) {}

  RunReport run(std::size_t index) override {
    const JobSpec& j = w_.pool[index];
    ShardJob job;
    job.problem_spec = j.spec;
    job.config = j.config;
    job.loss_rate = j.loss_rate;
    job.loss_seed = j.loss_seed;
    job.adversary = !j.corrupt_nodes.empty();
    job.corrupt_nodes = j.corrupt_nodes;
    job.strategy = ByzantineStrategy::kRandom;
    job.adversary_seed = j.adversary_seed;
    return coordinator_.run(job);
  }
  ShardCoordinator& coordinator() { return coordinator_; }

 private:
  const Workload& w_;
  ShardCoordinator coordinator_;
};

std::unique_ptr<Target> make_target(const Workload& w, unsigned nproc,
                                    const std::string& shardd) {
  if (w.driver == DriverKind::kFleet) {
    return std::make_unique<FleetTarget>(w, nproc, shardd);
  }
  return std::make_unique<ServiceTarget>(w, nproc);
}

// ---- Drivers ----------------------------------------------------------------

struct JobRecord {
  std::size_t index = 0;  // pool entry
  double due = 0.0;       // seconds from window start
  double submit = 0.0;
  double done = 0.0;
  bool ok = false;
  double latency_ms() const { return 1e3 * (done - due); }
};

struct Window {
  std::vector<JobRecord> jobs;
  double wall = 0.0;  // window start to last completion
  std::size_t ok() const {
    return static_cast<std::size_t>(std::count_if(
        jobs.begin(), jobs.end(), [](const JobRecord& r) { return r.ok; }));
  }
};

// Closed loop: `clients` callers, each submitting its next job when the
// previous one is verified, until `seconds` have passed.
Window drive_closed(Target& target, const Workload& w, double seconds,
                    std::size_t& next_job, Tracer* tracer) {
  Window out;
  std::mutex mu;
  std::exception_ptr error;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client = [&] {
    try {
      while (Clock::now() < stop) {
        std::size_t seq;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (error) return;
          seq = next_job++;
        }
        JobRecord r;
        r.index = seq % w.pool.size();
        r.submit = r.due = seconds_between(start, Clock::now());
        const int span =
            tracer != nullptr ? tracer->begin("job", -1, seq) : -1;
        const RunReport report = target.run(r.index);
        r.done = seconds_between(start, Clock::now());
        if (tracer != nullptr) tracer->end(span);
        r.ok = check_report(w.pool[r.index], report);
        std::lock_guard<std::mutex> lock(mu);
        out.jobs.push_back(r);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < w.clients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  out.wall = seconds_between(start, Clock::now());
  return out;
}

// Open loop: seeded random arrivals at w.arrival_rate for `seconds`;
// each job's latency runs from when it was due. A pool of waiter threads
// blocks on the outstanding futures in submission order, so a slow job
// delays the recorded finish of a fast one only when more than
// kWaiters jobs are outstanding.
Window drive_open(ServiceTarget& target, const Workload& w, double seconds,
                  u64 seed, std::size_t& next_job, Tracer* tracer) {
  constexpr unsigned kWaiters = 16;
  struct Pending {
    JobRecord rec;
    int span = -1;
    std::future<RunReport> fut;
  };
  // A Poisson process conditioned on its count: rate * seconds arrival
  // times drawn uniformly and sorted, so the offered load is the same on
  // every seed. Every window of a run replays the same schedule.
  std::mt19937_64 rng(mix_seed(seed, 900));
  std::uniform_real_distribution<double> when(0.0, seconds);
  std::vector<double> due(
      static_cast<std::size_t>(std::llround(w.arrival_rate * seconds)));
  for (double& t : due) t = when(rng);
  std::sort(due.begin(), due.end());

  Window out;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool generating = true;
  std::exception_ptr error;
  const Clock::time_point start = Clock::now();

  auto waiter = [&] {
    try {
      while (true) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !pending.empty() || !generating; });
          if (pending.empty()) return;
          p = std::move(pending.front());
          pending.pop_front();
        }
        const RunReport report = p.fut.get();
        p.rec.done = seconds_between(start, Clock::now());
        if (tracer != nullptr) tracer->end(p.span);
        p.rec.ok = check_report(w.pool[p.rec.index], report);
        std::lock_guard<std::mutex> lock(mu);
        out.jobs.push_back(p.rec);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> waiters;
  for (unsigned i = 0; i < kWaiters; ++i) waiters.emplace_back(waiter);

  try {
    for (double t : due) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(t)));
      {
        std::lock_guard<std::mutex> lock(mu);
        if (error) break;
      }
      Pending p;
      const std::size_t seq = next_job++;
      p.rec.index = seq % w.pool.size();
      p.rec.due = t;
      p.rec.submit = seconds_between(start, Clock::now());
      p.span = tracer != nullptr ? tracer->begin("job", -1, seq) : -1;
      p.fut = target.submit(p.rec.index);
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back(std::move(p));
      }
      cv.notify_one();
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu);
    if (!error) error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generating = false;
  }
  cv.notify_all();
  for (std::thread& t : waiters) t.join();
  if (error) std::rethrow_exception(error);
  out.wall = seconds_between(start, Clock::now());
  return out;
}

Window drive(Target& target, const Workload& w, double seconds, u64 seed,
             std::size_t& next_job, Tracer* tracer) {
  if (w.driver == DriverKind::kServiceOpen) {
    return drive_open(static_cast<ServiceTarget&>(target), w, seconds, seed,
                      next_job, tracer);
  }
  return drive_closed(target, w, seconds, next_job, tracer);
}

// ---- Layer counters ---------------------------------------------------------

struct Counters {
  ProofService::Stats stats;
  obs::Registry::Snapshot registry;
  double shard_bytes = 0.0;
  double retried = 0.0;
};

double hist_sum(const obs::Registry::Snapshot& s, const std::string& name) {
  for (const auto& [n, h] : s.histograms) {
    if (n == name) return h.sum_seconds;
  }
  return 0.0;
}

double gauge_value(const obs::Registry::Snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.gauges) {
    if (n == name) return static_cast<double>(v);
  }
  return 0.0;
}

Counters read_counters(Target& target) {
  Counters c;
  if (auto* st = dynamic_cast<ServiceTarget*>(&target)) {
    c.stats = st->service().stats();
    c.registry = st->service().metrics()->snapshot();
  } else {
    auto& coord = static_cast<FleetTarget&>(target).coordinator();
    c.registry = coord.fleet_snapshot();
    for (const auto& [n, v] : coord.metrics().snapshot().gauges) {
      if (n.rfind("camelot_shard_bandwidth_bytes_shard", 0) == 0) {
        c.shard_bytes += static_cast<double>(v);
      }
    }
    c.retried = static_cast<double>(coord.retried_primes());
  }
  return c;
}

const char* const kStages[] = {"prepare", "transport", "decode", "verify",
                               "recover"};

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool applies = true;
};

struct Tail {
  double value_ms = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};

// The highest percentile with at least ten samples beyond it.
Tail tail_latency(std::vector<double> ms) {
  Tail t;
  if (ms.empty()) return t;
  std::sort(ms.begin(), ms.end());
  const std::size_t n = ms.size();
  const std::size_t idx = n >= 11 ? n - 11 : n - 1;
  t.value_ms = ms[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  t.beyond = n - 1 - idx;
  return t;
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.applies) {
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    } else {
      std::printf("  %-34s %16s %s\n", m.name.c_str(), "n/a", m.unit.c_str());
    }
  }
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A layer that does not apply to this workload reads 0 here and
    // n/a in the table above.
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].applies ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

int run(const Args& args) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  Workload w = make_workload(args.workload, args.seed);
  const std::string fingerprint = host_fingerprint(nproc);
  std::printf("workload %s seed %llu seconds %.1f trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host %s\n", fingerprint.c_str());

  // Reference answers first: outside setup_s.
  compute_references(w);
  std::vector<double> ref_ms;
  for (const JobSpec& j : w.pool) ref_ms.push_back(1e3 * j.reference_seconds);

  // Set-up, several times: problem construction, service or fleet
  // start, plan_primes, field/NTT tables and RS codes (all built by the
  // first, cold job), to one verified job. The last target is kept.
  // At least three repetitions, more while they stay cheap.
  std::vector<double> setup_times, setup_child_cpu;
  std::unique_ptr<Target> target;
  std::size_t attempted = 0, failed = 0;
  double children_before_kept = 0.0, setup_total = 0.0;
  for (int rep = 0; rep < 3 || (rep < 25 && setup_total < 1.5); ++rep) {
    const double children_before = cpu_seconds(RUSAGE_CHILDREN);
    target.reset();
    // Hand the old service's freed heap back to the kernel, so each
    // set-up starts from the same resident memory and peak_rss_mb does
    // not ratchet up with the number of repetitions.
    malloc_trim(0);
    setup_child_cpu.push_back(cpu_seconds(RUSAGE_CHILDREN) - children_before);
    const Clock::time_point t0 = Clock::now();
    children_before_kept = cpu_seconds(RUSAGE_CHILDREN);
    target = make_target(w, nproc, args.shardd);
    const bool ok = check_report(w.pool[0], target->run(0));
    ++attempted;
    if (!ok) ++failed;
    setup_times.push_back(seconds_between(t0, Clock::now()));
    setup_total += setup_times.back();
  }
  // setup_child_cpu[r] holds the children CPU of the fleet set up in rep
  // r-1 (reaped when rep r replaced it): spawn plus one cold job.
  setup_child_cpu.erase(setup_child_cpu.begin());
  const double setup_s = median(setup_times);

  // Warm-up outside every window: one job of every other shape, so the
  // plan and code caches hold all of them before measuring.
  std::vector<std::string> shapes = {w.pool[0].shape};
  for (std::size_t i = 1; i < w.pool.size(); ++i) {
    if (std::find(shapes.begin(), shapes.end(), w.pool[i].shape) !=
        shapes.end()) {
      continue;
    }
    shapes.push_back(w.pool[i].shape);
    const bool ok = check_report(w.pool[i], target->run(i));
    ++attempted;
    if (!ok) ++failed;
  }

  const double rss_after_setup = maxrss_mb(RUSAGE_SELF);
  const double window = args.trace ? args.seconds / 3.0 : args.seconds;
  std::size_t next_job = 0;
  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  const Counters c0 = read_counters(*target);
  const Window main = drive(*target, w, window, args.seed, next_job, nullptr);
  const Counters c1 = read_counters(*target);

  Tracer tracer(Clock::now());
  Window traced;
  std::uint64_t traced_allocs = 0;
  if (args.trace) {
    const std::uint64_t a0 = g_heap_allocs.load();
    g_count_allocs = true;
    traced = drive(*target, w, window, args.seed, next_job, &tracer);
    g_count_allocs = false;
    traced_allocs = g_heap_allocs.load() - a0;
  }
  const double cpu2 = cpu_seconds(RUSAGE_SELF);

  // Destroying the target reaps the fleet: only then does
  // RUSAGE_CHILDREN hold its CPU.
  target.reset();
  const double fleet_cpu =
      std::max(0.0, cpu_seconds(RUSAGE_CHILDREN) - children_before_kept -
                        median(setup_child_cpu));
  const std::size_t driver_jobs = main.jobs.size() + traced.jobs.size();
  const double cpu_per_job =
      (cpu2 - cpu0 + fleet_cpu) /
      static_cast<double>(std::max<std::size_t>(1, driver_jobs));
  const double peak_rss = std::max(maxrss_mb(RUSAGE_SELF),
                                   maxrss_mb(RUSAGE_CHILDREN));

  attempted += main.jobs.size() + traced.jobs.size();
  failed += (main.jobs.size() - main.ok()) + (traced.jobs.size() - traced.ok());

  std::vector<double> lat_ms;
  double late_sum = 0.0, late_max = 0.0;
  for (const JobRecord& r : main.jobs) {
    lat_ms.push_back(r.latency_ms());
    const double late = 1e3 * (r.submit - r.due);
    late_sum += late;
    late_max = std::max(late_max, late);
  }
  const Tail tail = tail_latency(lat_ms);
  const double jobs_per_s = static_cast<double>(main.ok()) / main.wall;
  const double error_rate =
      main.jobs.empty() ? 0.0
                        : static_cast<double>(main.jobs.size() - main.ok()) /
                              static_cast<double>(main.jobs.size());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"jobs_per_s", jobs_per_s, "1/s"},
        {"latency_p50_ms", median(lat_ms), "ms"},
        {"latency_tail_ms", tail.value_ms, "ms"},
        {"cpu_s_per_job", cpu_per_job, "s"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"verified_frac", 1.0 - error_rate, "ratio"},
    };
    std::printf("end-to-end (%zu jobs in %.2f s window):\n", main.jobs.size(),
                main.wall);
    print_table(metrics);
    std::printf("  error_rate %.6f (%zu of %zu jobs not verified)\n",
                error_rate, main.jobs.size() - main.ok(), main.jobs.size());
    std::printf("  latency_tail_ms is p%.2f: %zu of %zu samples beyond it\n",
                tail.percentile, tail.beyond, lat_ms.size());
    if (w.driver == DriverKind::kServiceOpen) {
      std::printf("  generator lateness: mean %.3f ms, max %.3f ms "
                  "(rate %.1f jobs/s)\n",
                  lat_ms.empty() ? 0.0 : late_sum / lat_ms.size(), late_max,
                  w.arrival_rate);
    }
    std::printf("  peak rss after set-up %.2f MB, after the window %.2f MB\n",
                rss_after_setup, maxrss_mb(RUSAGE_SELF));
    std::printf("  setup reps (s):");
    for (double t : setup_times) std::printf(" %.4f", t);
    std::printf("\n");
  } else {
    // Staged jobs, on warm caches: as many as fit the last third of the
    // run (at least one).
    std::vector<StagedSample> staged;
    for (const JobSpec& j : w.pool) warm_staged_caches(j);
    const Clock::time_point staged_start = Clock::now();
    for (u64 k = 0; staged.empty() ||
                    seconds_between(staged_start, Clock::now()) < window;
         ++k) {
      const JobSpec& j = w.pool[k % w.pool.size()];
      staged.push_back(run_staged_job(j, tracer, 1000000 + k));
      ++attempted;
      if (!staged.back().ok) ++failed;
    }
    auto avg = [&](auto field) {
      double s = 0.0;
      for (const StagedSample& x : staged) s += x.*field;
      return s / static_cast<double>(staged.size());
    };
    auto avg_applicable = [&](double StagedSample::*field) {
      double s = 0.0;
      std::size_t n = 0;
      for (const StagedSample& x : staged) {
        if (x.*field >= 0.0) {
          s += x.*field;
          ++n;
        }
      }
      return n == 0 ? -1.0 : s / static_cast<double>(n);
    };
    const bool service = w.driver != DriverKind::kFleet;
    const double jobs_main =
        static_cast<double>(std::max<std::size_t>(1, main.jobs.size()));
    const double untraced_jps = static_cast<double>(main.ok()) / main.wall;
    const double traced_jps = static_cast<double>(traced.ok()) / traced.wall;
    // Closed loops: throughput lost to tracing. The open loop's
    // throughput is its arrival rate, so there the cost shows as mean
    // latency instead.
    auto mean_latency = [](const Window& win) {
      double s = 0.0;
      for (const JobRecord& r : win.jobs) s += r.latency_ms();
      return s / static_cast<double>(std::max<std::size_t>(1, win.jobs.size()));
    };
    const double overhead =
        w.driver == DriverKind::kServiceOpen
            ? mean_latency(traced) / mean_latency(main) - 1.0
            : 1.0 - traced_jps / untraced_jps;

    const double seq_ms = median(ref_ms);
    const double matmul = avg_applicable(&StagedSample::matmul_per_call);
    const double yates = avg_applicable(&StagedSample::yates_per_call);

    auto delta_hits = [](std::size_t h1, std::size_t h0, std::size_t m1,
                         std::size_t m0) {
      const double hits = static_cast<double>(h1 - h0);
      const double lookups = hits + static_cast<double>(m1 - m0);
      return std::make_pair(lookups > 0.0 ? hits / lookups : 0.0, lookups);
    };
    const auto [code_ratio, code_base] = delta_hits(
        c1.stats.code_cache.hits, c0.stats.code_cache.hits,
        c1.stats.code_cache.misses, c0.stats.code_cache.misses);
    const auto [plan_ratio, plan_base] =
        delta_hits(c1.stats.plan_cache_hits, c0.stats.plan_cache_hits,
                   c1.stats.plan_cache_misses, c0.stats.plan_cache_misses);
    double stage_busy_total = 0.0;
    std::vector<Metric> stage_busy;
    for (const char* st : kStages) {
      const std::string h = std::string("camelot_stage_") + st + "_seconds";
      const double busy = hist_sum(c1.registry, h) - hist_sum(c0.registry, h);
      stage_busy_total += busy;
      stage_busy.push_back({std::string("service.stage_") + st + "_busy_s",
                            busy / jobs_main, "s", service});
    }
    const double busy_frac = stage_busy_total / (nproc * main.wall);


    double node_imbalance = 0.0;
    for (const StagedSample& x : staged) node_imbalance += x.node_imbalance;
    node_imbalance /= static_cast<double>(staged.size());

    metrics = {
        {"count.evaluate_ms", 1e3 * avg(&StagedSample::evaluate), "ms"},
        {"linalg.matmul_us", 1e6 * matmul, "us", matmul >= 0.0},
        {"yates.apply_us", 1e6 * yates, "us", yates >= 0.0},
        {"session.recover_ms", 1e3 * avg(&StagedSample::recover), "ms"},
        {"rs.encode_systematic_ms", 1e3 * avg(&StagedSample::encode), "ms"},
        {"rs.gao_decode_ms", 1e3 * avg(&StagedSample::gao_decode), "ms"},
        {"rs.quotient_steps", avg(&StagedSample::quotient_steps), "count"},
        {"poly.hgcd_calls", avg(&StagedSample::hgcd_calls), "count"},
        {"session.construct_ms", 1e3 * avg(&StagedSample::construct), "ms"},
        {"session.prepare_ms", 1e3 * avg(&StagedSample::prepare), "ms"},
        {"session.transport_ms", 1e3 * avg(&StagedSample::transport), "ms"},
        {"session.decode_ms", 1e3 * avg(&StagedSample::decode), "ms"},
        {"session.verify_ms", 1e3 * avg(&StagedSample::verify), "ms"},
        {"session.crt_ms", 1e3 * avg(&StagedSample::crt), "ms"},
        {"session.job_wall_ms", 1e3 * avg(&StagedSample::job_wall), "ms"},
        {"session.stage_coverage", avg(&StagedSample::coverage), "ratio"},
        {"session.verify_node_ratio",
         avg(&StagedSample::verify) / avg(&StagedSample::max_node_prepare),
         "ratio"},
        {"rs.code_build_ms", 1e3 * avg(&StagedSample::code_build), "ms"},
        {"field.plan_primes_ms", 1e3 * avg(&StagedSample::plan_primes), "ms"},
        {"service.code_cache_hit_ratio", code_ratio, "ratio", service},
        {"service.code_cache_lookups", code_base, "count", service},
        {"service.plan_cache_hit_ratio", plan_ratio, "ratio", service},
        {"service.plan_cache_lookups", plan_base, "count", service},
    };
    metrics.insert(metrics.end(), stage_busy.begin(), stage_busy.end());
    const std::vector<Metric> rest = {
        {"service.worker_busy_frac", busy_frac, "ratio", service},
        {"service.queue_depth_high_water",
         static_cast<double>(c1.stats.queue_depth_high_water), "count",
         service},
        {"arena.heap_allocs_per_job",
         static_cast<double>(traced_allocs) /
             static_cast<double>(std::max<std::size_t>(1, traced.jobs.size())),
         "count"},
        {"arena.bytes_reserved",
         gauge_value(obs::Registry::global()->snapshot(),
                     "camelot_arena_bytes_reserved"),
         "bytes", service},
        {"core.repair_rounds",
         static_cast<double>(c1.stats.repair_rounds - c0.stats.repair_rounds) /
             jobs_main,
         "count", service},
        {"core.repaired_symbols",
         static_cast<double>(c1.stats.repaired_symbols -
                             c0.stats.repaired_symbols) /
             jobs_main,
         "count", service},
        {"shard.bytes_per_job", (c1.shard_bytes - c0.shard_bytes) / jobs_main,
         "bytes", !service},
        {"shard.worker_busy_frac", busy_frac, "ratio", !service},
        {"shard.retried_primes", c1.retried - c0.retried, "count", !service},
        {"core.node_imbalance", node_imbalance, "ratio"},
        {"baseline.sequential_ms", seq_ms, "ms"},
        {"baseline.work_ratio", 1e3 * cpu_per_job / seq_ms, "ratio"},
        {"trace.overhead_frac", overhead, "ratio"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    std::printf("per-layer (%zu untraced + %zu traced driver jobs, %zu "
                "staged jobs):\n",
                main.jobs.size(), traced.jobs.size(), staged.size());
    print_table(metrics);

    // Self-check: stage self-times against the traced job wall time,
    // and the dominant layer against the prediction.
    // Layers of the staged job from its stage self-times: the prepare
    // stage is the evaluator plus the systematic encode (whose share is
    // the direct encode call's time); "fixed" is session construction,
    // transport and CRT.
    const double wall = avg(&StagedSample::job_wall);
    const double encode = std::min(avg(&StagedSample::encode),
                                   avg(&StagedSample::prepare));
    const std::vector<std::pair<std::string, double>> layers = {
        {"evaluate", avg(&StagedSample::prepare) - encode},
        {"rs", encode + avg(&StagedSample::decode)},
        {"recover", avg(&StagedSample::recover)},
        {"verify", avg(&StagedSample::verify)},
        {"fixed", avg(&StagedSample::construct) +
                      avg(&StagedSample::transport) + avg(&StagedSample::crt)},
    };
    const auto dominant = *std::max_element(
        layers.begin(), layers.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    std::printf("self-check: stage self-times sum to %.1f%% of the traced "
                "job wall time (%.3f ms)\n",
                100.0 * avg(&StagedSample::coverage), 1e3 * wall);
    std::printf("self-check: layer shares of the staged job:");
    for (const auto& [name, t] : layers) {
      std::printf(" %s %.1f%%", name.c_str(), 100.0 * t / wall);
    }
    std::printf("\nself-check: dominant layer %s, predicted %s: %s\n",
                dominant.first.c_str(), w.predicted_layer.c_str(),
                dominant.first == w.predicted_layer ? "match" : "MISMATCH");
    std::printf("trace: %.3f jobs/s untraced, %.3f jobs/s traced\n",
                untraced_jps, traced_jps);
  }

  // Raw per-job records, spans and the host fingerprint.
  const std::string path = args.out_dir + "/" + w.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"host\": %s,\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 fingerprint.c_str());
    std::fprintf(f, "\"setup_s\": [");
    for (std::size_t i = 0; i < setup_times.size(); ++i) {
      std::fprintf(f, "%s%.6f", i ? ", " : "", setup_times[i]);
    }
    std::fprintf(f, "],\n\"latency_tail\": {\"percentile\": %.4f, "
                    "\"samples_beyond\": %zu, \"samples\": %zu},\n",
                 tail.percentile, tail.beyond, lat_ms.size());
    std::fprintf(f, "\"jobs\": [");
    for (std::size_t i = 0; i < main.jobs.size(); ++i) {
      const JobRecord& r = main.jobs[i];
      std::fprintf(f,
                   "%s\n {\"entry\": %zu, \"due_s\": %.6f, \"submit_s\": "
                   "%.6f, \"done_s\": %.6f, \"ok\": %s}",
                   i ? "," : "", r.index, r.due, r.submit, r.done,
                   r.ok ? "true" : "false");
    }
    std::fprintf(f, "\n],\n\"metrics\": %s,\n\"spans\": ",
                 metrics_json(metrics).c_str());
    tracer.write_json(f);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("details: %s\n", path.c_str());
  }

  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              attempted, failed, metrics_json(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const perfbench::SoundnessViolation& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "SOUNDNESS VIOLATION: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
