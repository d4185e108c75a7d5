// Workload definitions, reference answers, the span recorder and the
// staged per-layer probe of the Camelot benchmark.
#include <algorithm>
#include <map>
#include <random>
#include <span>
#include <stdexcept>

#include "apps/ov.hpp"
#include "bench.hpp"
#include "core/byzantine.hpp"
#include "core/prime_plan.hpp"
#include "core/proof_session.hpp"
#include "core/shard.hpp"
#include "count/clique.hpp"
#include "count/triangle.hpp"
#include "field/field_cache.hpp"
#include "graph/generators.hpp"
#include "linalg/matmul.hpp"
#include "rs/code_cache.hpp"
#include "rs/gao.hpp"
#include "rs/reed_solomon.hpp"
#include "yates/yates.hpp"

namespace perfbench {
namespace {

using namespace camelot;

std::vector<std::string> split_spec(const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) return parts;
    start = colon + 1;
  }
}

u64 part_u64(const std::vector<std::string>& parts, std::size_t i) {
  return std::strtoull(parts.at(i).c_str(), nullptr, 10);
}

// Two distinct nodes out of num_nodes, sorted.
std::vector<std::size_t> two_nodes(u64 seed, std::size_t num_nodes) {
  const std::size_t a = mix_seed(seed, 1) % num_nodes;
  std::size_t b = mix_seed(seed, 2) % (num_nodes - 1);
  if (b >= a) ++b;
  return {std::min(a, b), std::max(a, b)};
}

template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

// Mean seconds per call of fn, over at least min_seconds of calls.
template <typename Fn>
double per_call_seconds(Fn&& fn, double min_seconds) {
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(calls);
}

}  // namespace

Workload make_workload(const std::string& name, u64 seed) {
  Workload w;
  w.name = name;
  if (name == "clique6") {
    // Theorem 1's headline: 6-cliques on a 16-vertex graph (N=16,
    // R=7^4=2401, d+1=7201, two CRT primes), honest and lossless.
    w.driver = DriverKind::kServiceClosed;
    w.clients = 2;
    w.predicted_layer = "evaluate";
    for (u64 i = 0; i < 4; ++i) {
      JobSpec j;
      j.spec = "clique:16:72:6:" + std::to_string(mix_seed(seed, 100 + i) %
                                                   1000000007ull);
      j.shape = "clique";
      j.config.num_nodes = 16;
      j.config.redundancy = 2.0;
      j.config.seed = mix_seed(seed, 200 + i);
      w.pool.push_back(std::move(j));
    }
  } else if (name == "ov_byzantine") {
    // Decode-heavy: five of sixteen nodes send random symbols, the
    // fleet corrects them and must name exactly those five.
    w.driver = DriverKind::kFleet;
    w.clients = 1;
    w.predicted_layer = "rs";
    for (u64 i = 0; i < 4; ++i) {
      JobSpec j;
      j.spec = "ov:128:16:0.35:" + std::to_string(mix_seed(seed, 100 + i) %
                                                  1000000007ull);
      j.shape = "ov";
      j.config.num_nodes = 16;
      j.config.redundancy = 4.0;
      j.config.num_primes = 8;
      j.config.seed = mix_seed(seed, 200 + i);
      j.corrupt_nodes = {1, 4, 7, 10, 13};
      j.adversary_seed = mix_seed(seed, 300 + i);
      w.pool.push_back(std::move(j));
    }
  } else if (name == "service_mix") {
    // Many small jobs, open loop. Entry k has shape k % 3 and channel
    // class k % 4 (lossy, byzantine, clean, clean), so the twelve
    // entries cover every (shape, class) pair once per rotation.
    w.driver = DriverKind::kServiceOpen;
    w.arrival_rate = 20.0;
    w.predicted_layer = "fixed";
    for (u64 k = 0; k < 12; ++k) {
      const u64 s = mix_seed(seed, 100 + k) % 1000000007ull;
      JobSpec j;
      switch (k % 3) {
        case 0:
          j.spec = "triangle:48:300:" + std::to_string(s);
          j.shape = "triangle";
          break;
        case 1:
          j.spec = "ov:48:16:0.35:" + std::to_string(s);
          j.shape = "ov";
          break;
        default:
          j.spec = "clique:8:20:6:" + std::to_string(s);
          j.shape = "clique";
          break;
      }
      j.config.num_nodes = 16;
      j.config.redundancy = 2.0;
      j.config.seed = mix_seed(seed, 200 + k);
      if (k % 4 == 0) {
        j.loss_rate = 0.05;
        j.loss_seed = mix_seed(seed, 300 + k);
      } else if (k % 4 == 1) {
        j.corrupt_nodes = two_nodes(mix_seed(seed, 400 + k),
                                    j.config.num_nodes);
        j.adversary_seed = mix_seed(seed, 500 + k);
      }
      w.pool.push_back(std::move(j));
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

void compute_references(Workload& w) {
  for (JobSpec& j : w.pool) {
    const std::vector<std::string> p = split_spec(j.spec);
    j.expected.clear();
    if (j.shape == "clique") {
      const std::size_t n = part_u64(p, 1), m = part_u64(p, 2),
                        k = part_u64(p, 3);
      const Graph g = gnm(n, m, part_u64(p, 4));
      BigInt count;
      j.reference_seconds = time_seconds(
          [&] { count = count_k_cliques_nesetril_poljak(g, k); });
      // The proof encodes X(6,2) = multiplicity * #k-cliques.
      j.expected.push_back(count * clique_multiplicity(k));
    } else if (j.shape == "triangle") {
      const Graph g = gnm(part_u64(p, 1), part_u64(p, 2), part_u64(p, 3));
      u64 count = 0;
      j.reference_seconds =
          time_seconds([&] { count = count_triangles_itai_rodeh(g); });
      // The proof encodes trace(A^3) = 6 * #triangles.
      j.expected.push_back(BigInt::from_u64(6 * count));
    } else {
      const std::size_t n = part_u64(p, 1), t = part_u64(p, 2);
      const double density = std::strtod(p.at(3).c_str(), nullptr);
      const u64 s = part_u64(p, 4);
      const BoolMatrix a = BoolMatrix::random(n, t, density, s);
      const BoolMatrix b = BoolMatrix::random(n, t, density, s + 1);
      std::vector<u64> counts;
      j.reference_seconds =
          time_seconds([&] { counts = count_orthogonal_brute(a, b); });
      for (u64 c : counts) j.expected.push_back(BigInt::from_u64(c));
    }
  }
}

bool check_report(const JobSpec& job, const RunReport& report) {
  if (!report.success || report.status != JobStatus::kOk) return false;
  if (!(report.answers == job.expected)) {
    throw SoundnessViolation("verified report disagrees with the reference "
                             "answer for " + job.spec);
  }
  if (report.implicated_nodes() != job.corrupt_nodes) {
    throw SoundnessViolation("implicated nodes differ from the corrupt set "
                             "for " + job.spec);
  }
  return true;
}

// ---- Tracer ----------------------------------------------------------------

int Tracer::begin(std::string name, int parent, u64 job) {
  const double now = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), now, now, parent, job});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const double now = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

double Tracer::duration(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end - s.start;
}

double Tracer::self_seconds(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans_) {
    if (c.parent == id) {
      kids.emplace_back(std::max(c.start, s.start), std::min(c.end, s.end));
    }
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, lo = 0.0, hi = -1.0;
  for (const auto& [a, b] : kids) {
    if (a > hi) {
      if (hi > lo) covered += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) covered += hi - lo;
  return (s.end - s.start) - covered;
}

void Tracer::write_json(std::FILE* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out, "[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d, \"job\": %llu}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.start, s.end,
                 s.parent, static_cast<unsigned long long>(s.job));
  }
  std::fprintf(out, "\n]");
}

// ---- Staged job + direct layer calls ----------------------------------------

void warm_staged_caches(const JobSpec& job) {
  const std::unique_ptr<CamelotProblem> problem =
      make_problem_from_spec(job.spec);
  const ProofSpec spec = problem->spec();
  const PrimePlan plan =
      plan_primes(spec, job.config.redundancy, job.config.num_primes);
  for (u64 q : plan.primes) {
    const FieldOps ops =
        FieldCache::global()->ops(q, 2 * plan.code_length, job.config.backend);
    CodeCache::global()->code(ops, spec.degree_bound, plan.code_length);
  }
}

StagedSample run_staged_job(const JobSpec& job, Tracer& tracer, u64 job_id) {
  StagedSample out;
  const std::unique_ptr<CamelotProblem> problem =
      make_problem_from_spec(job.spec);
  ClusterConfig cfg = job.config;
  cfg.num_threads = 1;  // stage times are then single-core work
  std::unique_ptr<ByzantineAdversary> adversary;
  if (!job.corrupt_nodes.empty()) {
    adversary = std::make_unique<ByzantineAdversary>(
        job.corrupt_nodes, ByzantineStrategy::kRandom, job.adversary_seed);
  }

  RunReport report;
  std::unique_ptr<ProofSession> session;
  const int job_span = tracer.begin("job", -1, job_id);
  int construct_span = -1;
  {
    ScopedSpan c(tracer, "session.construct", job_span, job_id);
    construct_span = c.id();
    session = std::make_unique<ProofSession>(*problem, cfg);
  }
  std::vector<std::pair<std::string, int>> stage_spans;
  auto stage = [&](const char* name, int parent, auto&& fn) {
    const int id = tracer.begin(name, parent, job_id);
    fn();
    tracer.end(id);
    stage_spans.emplace_back(name, id);
  };
  for (std::size_t i = 0; i < session->num_primes(); ++i) {
    ScopedSpan prime(tracer, "prime", job_span, job_id);
    stage("prepare", prime.id(), [&] { session->prepare_prime(i); });
    stage("transport", prime.id(), [&] {
      if (adversary) {
        session->transport_prime(i, AdversarialChannel(*adversary));
      } else {
        session->transport_prime(i, LosslessChannel());
      }
    });
    stage("decode", prime.id(), [&] { session->decode_prime(i); });
    stage("verify", prime.id(), [&] { session->verify_prime(i); });
    stage("recover", prime.id(), [&] { session->recover_prime(i); });
  }
  stage("crt", job_span, [&] { report = session->report(); });
  tracer.end(job_span);

  out.ok = check_report(job, report);
  out.job_wall = tracer.duration(job_span);
  out.construct = tracer.duration(construct_span);
  std::map<std::string, double> stage_self;
  double covered = 0.0;
  for (const auto& [name, id] : stage_spans) {
    const double self = tracer.self_seconds(id);
    stage_self[name] += self;
    covered += self;
  }
  out.prepare = stage_self["prepare"];
  out.transport = stage_self["transport"];
  out.decode = stage_self["decode"];
  out.verify = stage_self["verify"];
  out.recover = stage_self["recover"];
  out.crt = stage_self["crt"];
  out.coverage = covered / out.job_wall;
  double node_sum = 0.0;
  std::size_t busy_nodes = 0;
  for (const NodeStats& ns : report.node_stats) {
    // Under systematic encoding only the nodes owning message positions
    // run the evaluator; balance is judged among those.
    if (ns.symbols_computed == 0) continue;
    out.max_node_prepare = std::max(out.max_node_prepare, ns.seconds);
    node_sum += ns.seconds;
    ++busy_nodes;
  }
  if (busy_nodes > 0 && node_sum > 0.0) {
    out.node_imbalance =
        out.max_node_prepare / (node_sum / static_cast<double>(busy_nodes));
  }
  for (const PrimeRunReport& pr : report.per_prime) {
    out.quotient_steps += static_cast<double>(pr.decode_quotient_steps);
    out.hgcd_calls += static_cast<double>(pr.decode_hgcd_calls);
  }

  // Direct calls into field/, rs/, count|apps/, linalg/, yates/ on the
  // same instance, outside the job span.
  ScopedSpan probe(tracer, "probe", -1, job_id);
  const ProofSpec spec = problem->spec();
  PrimePlan plan;
  out.plan_primes = time_seconds(
      [&] { plan = plan_primes(spec, cfg.redundancy, cfg.num_primes); });
  const std::size_t d = spec.degree_bound;
  const std::size_t e = plan.code_length;
  for (std::size_t i = 0; i < plan.primes.size(); ++i) {
    const u64 q = plan.primes[i];
    const FieldOps ops = FieldCache::global()->ops(q, 2 * e, cfg.backend);
    std::unique_ptr<ReedSolomonCode> code;
    {
      ScopedSpan s(tracer, "rs.code_build", probe.id(), job_id);
      out.code_build += time_seconds(
          [&] { code = std::make_unique<ReedSolomonCode>(ops, d, e); });
    }
    std::vector<u64> message;
    {
      ScopedSpan s(tracer, "count.evaluate", probe.id(), job_id);
      out.evaluate += time_seconds([&] {
        std::unique_ptr<Evaluator> ev = problem->make_evaluator(ops);
        message = ev->evaluate_points(
            std::span<const u64>(code->points().data(), d + 1));
      });
    }
    std::vector<u64> codeword;
    {
      ScopedSpan s(tracer, "rs.encode_systematic", probe.id(), job_id);
      out.encode +=
          time_seconds([&] { codeword = code->encode_systematic(message); });
    }
    if (codeword != session->sent(i)) {
      throw SoundnessViolation("direct evaluate+encode differs from the "
                               "session's codeword for " + job.spec);
    }
    GaoResult decoded;
    {
      ScopedSpan s(tracer, "rs.gao_decode", probe.id(), job_id);
      out.gao_decode += time_seconds(
          [&] { decoded = gao_decode(*code, session->received(i)); });
    }
    if (decoded.status != DecodeStatus::kOk ||
        decoded.corrected != session->sent(i)) {
      throw SoundnessViolation("direct Gao decode disagrees with the "
                               "session for " + job.spec);
    }
  }

  if (job.shape == "clique") {
    // The evaluator's kernels at this instance's size: N x N matmul
    // (N = vertices for k = 6) and the Strassen-base Yates transform
    // to R = 7^log2(N) points.
    const std::size_t n = part_u64(split_spec(job.spec), 1);
    const PrimeField f(plan.primes[0]);
    std::mt19937_64 rng(job.config.seed);
    Matrix a(n, n), b(n, n);
    for (u64& v : a.data()) v = rng() % f.modulus();
    for (u64& v : b.data()) v = rng() % f.modulus();
    volatile u64 sink = 0;
    {
      ScopedSpan s(tracer, "linalg.matmul", probe.id(), job_id);
      out.matmul_per_call = per_call_seconds(
          [&] { sink = sink + matmul(a, b, f).at(0, 0); }, 0.02);
    }
    unsigned k = 0;
    while ((std::size_t{1} << k) < n) ++k;
    std::vector<u64> base(7 * 4), x(std::size_t{1} << (2 * k));
    for (u64& v : base) v = rng() % f.modulus();
    for (u64& v : x) v = rng() % f.modulus();
    const MontgomeryField mont(f);
    {
      ScopedSpan s(tracer, "yates.apply", probe.id(), job_id);
      out.yates_per_call = per_call_seconds(
          [&] { sink = sink + yates_apply(mont, base, 7, 4, x, k)[0]; },
          0.02);
    }
  }
  return out;
}

}  // namespace perfbench
