#include "core/shard.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "apps/ov.hpp"
#include "core/erasure_stream.hpp"
#include "core/prime_plan.hpp"
#include "core/proof_session.hpp"
#include "core/symbol_stream.hpp"
#include "count/clique_camelot.hpp"
#include "count/triangle_camelot.hpp"
#include "graph/generators.hpp"
#include "linalg/tensor.hpp"
#include "obs/trace.hpp"

namespace camelot {

namespace {

// ---- Wire encoding -------------------------------------------------------
// Little-endian, append-only writer / cursor reader over std::string
// payloads. Fixed-width integers, 8-byte doubles (bit pattern), and
// u32-count-prefixed strings and u64 vectors cover every frame.

void put_u8(std::string& out, unsigned char v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// Both std::size_t and u64 vectors ship as u64 on the wire (the two
// types coincide on this platform, hence a template, not overloads).
template <typename T>
void put_vec_u64(std::string& out, const std::vector<T>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (T x : v) put_u64(out, static_cast<std::uint64_t>(x));
}

// A payload that breaks the wire protocol: truncated, over the size
// cap, an unknown tag, or a field out of range. The coordinator drops
// the sender (kill, reap, retry its primes on the survivors) instead
// of failing the job.
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class WireReader {
 public:
  explicit WireReader(const std::string& payload) : s_(payload) {}

  unsigned char u8() {
    need(1);
    return static_cast<unsigned char>(s_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= std::uint32_t(static_cast<unsigned char>(s_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64v() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= std::uint64_t(static_cast<unsigned char>(s_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double f64() {
    const std::uint64_t bits = u64v();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string out = s_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  // Element count of an array whose elements take `elem_bytes` each,
  // checked against the remaining bytes before the caller allocates,
  // so a lying count costs nothing.
  std::uint32_t count(std::size_t elem_bytes) {
    const std::uint32_t n = u32();
    need(elem_bytes * n);
    return n;
  }

  // A u32-count-prefixed u64 vector, as put_vec_u64 writes it.
  template <typename T>
  std::vector<T> vec() {
    const std::uint32_t n = count(8);
    std::vector<T> out(n);
    for (std::uint32_t i = 0; i < n; ++i) out[i] = static_cast<T>(u64v());
    return out;
  }

  bool done() const { return pos_ == s_.size(); }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > s_.size()) {
      throw WireError("shard wire: truncated frame");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---- Frame payloads ------------------------------------------------------

std::string encode_submit(const ShardJob& job,
                          const std::vector<std::size_t>& prime_indices) {
  std::string p;
  put_u8(p, static_cast<unsigned char>(ShardFrame::kSubmit));
  put_str(p, job.problem_spec);
  const ClusterConfig& c = job.config;
  put_u64(p, c.num_nodes);
  put_f64(p, c.redundancy);
  put_u32(p, c.num_threads);
  put_u64(p, c.verification_trials);
  put_u64(p, c.num_primes);
  put_u64(p, c.seed);
  put_u8(p, static_cast<unsigned char>(c.backend));
  put_u8(p, c.systematic_encode ? 1 : 0);
  put_u8(p, c.use_arena ? 1 : 0);
  put_u64(p, c.repair_budget);
  put_f64(p, job.loss_rate);
  put_u64(p, job.loss_seed);
  put_u8(p, job.adversary ? 1 : 0);
  put_vec_u64(p, job.corrupt_nodes);
  put_u8(p, static_cast<unsigned char>(job.strategy));
  put_u64(p, job.adversary_seed);
  put_vec_u64(p, prime_indices);
  return p;
}

struct SubmitFrame {
  ShardJob job;
  std::vector<std::size_t> prime_indices;
};

SubmitFrame decode_submit(WireReader& r) {
  SubmitFrame f;
  f.job.problem_spec = r.str();
  ClusterConfig& c = f.job.config;
  c.num_nodes = static_cast<std::size_t>(r.u64v());
  c.redundancy = r.f64();
  c.num_threads = r.u32();
  c.verification_trials = static_cast<std::size_t>(r.u64v());
  c.num_primes = static_cast<std::size_t>(r.u64v());
  c.seed = r.u64v();
  c.backend = static_cast<FieldBackend>(r.u8());
  c.systematic_encode = r.u8() != 0;
  c.use_arena = r.u8() != 0;
  c.repair_budget = static_cast<std::size_t>(r.u64v());
  f.job.loss_rate = r.f64();
  f.job.loss_seed = r.u64v();
  f.job.adversary = r.u8() != 0;
  f.job.corrupt_nodes = r.vec<std::size_t>();
  f.job.strategy = static_cast<ByzantineStrategy>(r.u8());
  f.job.adversary_seed = r.u64v();
  f.prime_indices = r.vec<std::size_t>();
  return f;
}

// One settled prime: its plan index, the PrimeRunReport, and the
// node-stats delta this prime added to the session (so the
// coordinator counts each prime's evaluator work exactly once even
// when a later shard death forces retries elsewhere).
std::string encode_prime_report(std::size_t prime_index,
                                const PrimeRunReport& pr,
                                const std::vector<NodeStats>& delta) {
  std::string p;
  put_u8(p, static_cast<unsigned char>(ShardFrame::kPrimeReport));
  put_u64(p, prime_index);
  put_u64(p, pr.prime);
  put_u8(p, static_cast<unsigned char>(pr.decode_status));
  put_u8(p, pr.verified ? 1 : 0);
  put_vec_u64(p, pr.corrected_symbols);
  put_vec_u64(p, pr.implicated_nodes);
  put_u64(p, pr.decode_quotient_steps);
  put_u64(p, pr.decode_hgcd_calls);
  put_u64(p, pr.repair_rounds);
  put_u64(p, pr.repaired_symbols);
  put_vec_u64(p, pr.answer_residues);
  put_u32(p, static_cast<std::uint32_t>(delta.size()));
  for (const NodeStats& ns : delta) {
    put_u64(p, ns.node_id);
    put_u64(p, ns.symbols_computed);
    put_f64(p, ns.seconds);
  }
  return p;
}

struct PrimeReportFrame {
  std::size_t prime_index = 0;
  PrimeRunReport report;
  std::vector<NodeStats> delta;
};

PrimeReportFrame decode_prime_report(WireReader& r) {
  PrimeReportFrame f;
  f.prime_index = static_cast<std::size_t>(r.u64v());
  f.report.prime = r.u64v();
  f.report.decode_status = static_cast<DecodeStatus>(r.u8());
  f.report.verified = r.u8() != 0;
  f.report.corrected_symbols = r.vec<std::size_t>();
  f.report.implicated_nodes = r.vec<std::size_t>();
  f.report.decode_quotient_steps = static_cast<std::size_t>(r.u64v());
  f.report.decode_hgcd_calls = static_cast<std::size_t>(r.u64v());
  f.report.repair_rounds = static_cast<std::size_t>(r.u64v());
  f.report.repaired_symbols = static_cast<std::size_t>(r.u64v());
  f.report.answer_residues = r.vec<u64>();
  const std::uint32_t n = r.count(8 + 8 + 8);  // node_id, symbols, seconds
  f.delta.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    f.delta[i].node_id = static_cast<std::size_t>(r.u64v());
    f.delta[i].symbols_computed = static_cast<std::size_t>(r.u64v());
    f.delta[i].seconds = r.f64();
  }
  return f;
}

std::string tagged(ShardFrame tag) {
  std::string p;
  put_u8(p, static_cast<unsigned char>(tag));
  return p;
}

std::string tagged_str(ShardFrame tag, const std::string& body) {
  std::string p = tagged(tag);
  put_str(p, body);
  return p;
}

// ---- fd plumbing ---------------------------------------------------------

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Largest payload either side accepts. A header claiming more is a
// broken or hostile peer: rejecting it before allocating keeps a
// 4-byte header from committing gigabytes.
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

// The payload length a frame header announces, checked against the
// cap. Both readers — the worker's and the coordinator's — decode
// headers here.
std::uint32_t frame_length(const char* hdr) {
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= std::uint32_t(static_cast<unsigned char>(hdr[i])) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    throw WireError("shard wire: frame exceeds the size cap");
  }
  return len;
}

bool write_frame(int fd, const std::string& payload) {
  std::string framed;
  framed.reserve(4 + payload.size());
  put_u32(framed, static_cast<std::uint32_t>(payload.size()));
  framed.append(payload);
  return write_all(fd, framed.data(), framed.size());
}

// Blocking read of exactly n bytes. Returns false on EOF before the
// first byte, throws on EOF after it or on a read error.
bool read_exact(int fd, char* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) throw WireError("shard wire: read failed");
    if (r == 0) {
      if (got == 0) return false;
      throw WireError("shard wire: EOF inside frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

// Blocking whole-frame read (worker side; the worker is sequential).
// Returns nullopt on EOF at a frame boundary, throws mid-frame and on
// a header over the frame-size cap.
std::optional<std::string> read_frame(int fd) {
  char hdr[4];
  if (!read_exact(fd, hdr, 4)) return std::nullopt;
  std::string payload(frame_length(hdr), '\0');
  if (!payload.empty() && !read_exact(fd, payload.data(), payload.size())) {
    throw WireError("shard wire: EOF inside frame");
  }
  return payload;
}

// Extracts one complete frame payload from a non-blocking reader's
// buffer (consumed prefix rpos) if present; throws WireError on a
// header over the frame-size cap.
std::optional<std::string> take_frame(std::string& rbuf, std::size_t& rpos) {
  if (rbuf.size() < rpos + 4) return std::nullopt;
  const std::uint32_t len = frame_length(rbuf.data() + rpos);
  if (rbuf.size() < rpos + 4 + len) return std::nullopt;
  std::string payload = rbuf.substr(rpos + 4, len);
  rpos += 4 + std::size_t(len);
  // Compact once the consumed prefix passes half the buffer, so
  // draining n buffered bytes costs O(n), not one erase per frame.
  if (rpos > rbuf.size() / 2) {
    rbuf.erase(0, rpos);
    rpos = 0;
  }
  return payload;
}

void ignore_sigpipe_once() {
  static const int installed = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return 0;
  }();
  (void)installed;
}

}  // namespace

// ---- Problem factory -----------------------------------------------------

std::unique_ptr<CamelotProblem> make_problem_from_spec(
    const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() == 4 && parts[0] == "triangle") {
    const std::size_t n = std::strtoull(parts[1].c_str(), nullptr, 10);
    const std::size_t m = std::strtoull(parts[2].c_str(), nullptr, 10);
    const u64 seed = std::strtoull(parts[3].c_str(), nullptr, 10);
    if (n == 0 || m == 0) {
      throw std::invalid_argument("problem spec: triangle needs n, m > 0");
    }
    Graph g = gnm(n, m, seed);
    return std::make_unique<TriangleCountProblem>(g,
                                                  strassen_decomposition());
  }
  if (parts.size() == 5 && parts[0] == "clique") {
    const std::size_t n = std::strtoull(parts[1].c_str(), nullptr, 10);
    const std::size_t m = std::strtoull(parts[2].c_str(), nullptr, 10);
    const std::size_t k = std::strtoull(parts[3].c_str(), nullptr, 10);
    const u64 seed = std::strtoull(parts[4].c_str(), nullptr, 10);
    if (n == 0 || m == 0) {
      throw std::invalid_argument("problem spec: clique needs n, m > 0");
    }
    if (k == 0 || k % 6 != 0) {
      throw std::invalid_argument("problem spec: clique needs 6 | k, k > 0");
    }
    Graph g = gnm(n, m, seed);
    return std::make_unique<CliqueCountProblem>(g, k,
                                                strassen_decomposition());
  }
  if (parts.size() == 5 && parts[0] == "ov") {
    const std::size_t n = std::strtoull(parts[1].c_str(), nullptr, 10);
    const std::size_t t = std::strtoull(parts[2].c_str(), nullptr, 10);
    const double density = std::strtod(parts[3].c_str(), nullptr);
    const u64 seed = std::strtoull(parts[4].c_str(), nullptr, 10);
    if (n == 0 || t == 0) {
      throw std::invalid_argument("problem spec: ov needs n, t > 0");
    }
    if (!(density >= 0.0) || density > 1.0) {
      throw std::invalid_argument("problem spec: ov density in [0, 1]");
    }
    return std::make_unique<OrthogonalVectorsProblem>(
        BoolMatrix::random(n, t, density, seed),
        BoolMatrix::random(n, t, density, seed + 1));
  }
  throw std::invalid_argument("unknown problem spec: " + spec);
}

// ---- Worker --------------------------------------------------------------

int run_shard_worker(int in_fd, int out_fd, std::size_t crash_after_primes) {
  auto registry = std::make_shared<obs::Registry>();
  obs::Counter& primes_counter =
      registry->counter("camelot_shard_primes_total");
  obs::Histogram& job_latency =
      registry->histogram("camelot_job_latency_seconds");
  std::size_t primes_settled = 0;

  try {
    while (true) {
      std::optional<std::string> payload = read_frame(in_fd);
      if (!payload) return 0;  // coordinator closed its end: clean exit
      WireReader r(*payload);
      const auto tag = static_cast<ShardFrame>(r.u8());
      switch (tag) {
        case ShardFrame::kShutdown:
          return 0;
        case ShardFrame::kObsRequest: {
          const std::string json = obs::render_json(*registry);
          if (!write_frame(out_fd,
                           tagged_str(ShardFrame::kObsSnapshot, json))) {
            return 1;
          }
          break;
        }
        case ShardFrame::kSubmit: {
          const auto t0 = std::chrono::steady_clock::now();
          SubmitFrame submit = decode_submit(r);
          std::unique_ptr<CamelotProblem> problem =
              make_problem_from_spec(submit.job.problem_spec);
          ProofSession session(*problem, submit.job.config, nullptr, nullptr,
                               nullptr, registry);
          const ShardJob& job = submit.job;
          const ChannelStack channel = make_channel_stack(
              job.adversary ? std::make_shared<ByzantineAdversary>(
                                  job.corrupt_nodes, job.strategy,
                                  job.adversary_seed)
                            : nullptr,
              LossSpec{job.loss_rate, job.loss_seed});
          // Node-stats deltas come from successive report() snapshots;
          // primes run sequentially here, so the difference is exactly
          // the work the prime just settled added.
          std::vector<NodeStats> prev = session.report().node_stats;
          for (std::size_t pi : submit.prime_indices) {
            session.run_prime_streaming(pi, channel.top());
            std::vector<NodeStats> cur = session.report().node_stats;
            std::vector<NodeStats> delta = cur;
            for (std::size_t j = 0; j < delta.size() && j < prev.size();
                 ++j) {
              delta[j].symbols_computed -= prev[j].symbols_computed;
              delta[j].seconds -= prev[j].seconds;
            }
            prev = std::move(cur);
            if (!write_frame(out_fd,
                             encode_prime_report(
                                 pi, session.prime_report(pi), delta))) {
              return 1;
            }
            primes_counter.inc();
            ++primes_settled;
            if (crash_after_primes != 0 &&
                primes_settled >= crash_after_primes) {
              // Fault-injection hook: die the way a crashed worker
              // does — no shutdown handshake, no stack unwinding.
              ::_exit(42);
            }
          }
          job_latency.observe(
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count());
          std::string done = tagged(ShardFrame::kSubmitDone);
          put_u64(done, primes_settled);
          if (!write_frame(out_fd, done)) return 1;
          break;
        }
        default:
          throw std::runtime_error("shard worker: unexpected frame tag");
      }
    }
  } catch (const std::exception& e) {
    (void)write_frame(out_fd, tagged_str(ShardFrame::kError, e.what()));
    return 1;
  }
}

// ---- Coordinator ---------------------------------------------------------

ShardCoordinator::ShardCoordinator(ShardOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics ? options_.metrics
                                : std::make_shared<obs::Registry>()) {
  if (options_.num_shards == 0) {
    throw std::invalid_argument("ShardCoordinator: need at least one shard");
  }
  ignore_sigpipe_once();
  if (options_.shardd_path.empty()) {
    const char* env = std::getenv("CAMELOT_SHARDD");
    options_.shardd_path = (env && *env) ? env : "./shardd";
  }
  retries_counter_ = &metrics_->counter("camelot_shard_retried_primes_total");
  deaths_counter_ = &metrics_->counter("camelot_shard_deaths_total");
  job_latency_ = &metrics_->histogram("camelot_job_latency_seconds");
  shards_.resize(options_.num_shards);
  last_scrapes_.resize(options_.num_shards);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].bandwidth = &metrics_->gauge(
        "camelot_shard_bandwidth_bytes_shard" + std::to_string(i));
    spawn(i);
  }
}

ShardCoordinator::~ShardCoordinator() {
  // kShutdown, then the kill+reap a drop uses: teardown never waits on
  // a worker that ignores kShutdown, and still reaps every worker (so
  // RUSAGE_CHILDREN holds the fleet's CPU once this returns). Not
  // counted as deaths.
  for (Shard& s : shards_) {
    if (s.alive) (void)write_frame(s.to_fd, tagged(ShardFrame::kShutdown));
    reap(s);
  }
}

std::size_t ShardCoordinator::live_shards() const noexcept {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.alive ? 1 : 0;
  return n;
}

void ShardCoordinator::spawn(std::size_t index) {
  // Close-on-exec: a worker keeps only the two ends dup2'ed onto its
  // stdin/stdout (dup2 clears the flag) and never inherits an earlier
  // sibling's pipe ends, so closing a shard's stdin reaches that shard.
  int to_pipe[2];    // coordinator writes, worker stdin
  int from_pipe[2];  // worker stdout, coordinator reads
  if (::pipe2(to_pipe, O_CLOEXEC) != 0 ||
      ::pipe2(from_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("ShardCoordinator: pipe() failed");
  }
  const bool inject_crash = index == options_.crash_shard &&
                            options_.crash_after_primes != 0;
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("ShardCoordinator: fork() failed");
  }
  if (pid == 0) {
    ::dup2(to_pipe[0], STDIN_FILENO);
    ::dup2(from_pipe[1], STDOUT_FILENO);
    std::string crash_arg =
        "--crash-after-primes=" + std::to_string(options_.crash_after_primes);
    const char* argv[3] = {options_.shardd_path.c_str(),
                           inject_crash ? crash_arg.c_str() : nullptr,
                           nullptr};
    ::execv(options_.shardd_path.c_str(), const_cast<char* const*>(argv));
    // exec failed: nothing sane to do in the forked child but vanish;
    // the coordinator sees EOF and drops the shard.
    ::_exit(127);
  }
  ::close(to_pipe[0]);
  ::close(from_pipe[1]);
  // Non-blocking reads so the frame loop can drain whatever is there.
  const int flags = ::fcntl(from_pipe[0], F_GETFL, 0);
  ::fcntl(from_pipe[0], F_SETFL, flags | O_NONBLOCK);
  Shard& s = shards_[index];
  s.pid = pid;
  s.to_fd = to_pipe[1];
  s.from_fd = from_pipe[0];
  s.alive = true;
  CAMELOT_TRACE_MSG(obs::kTraceSched, "shard %zu spawned pid=%d", index,
                    static_cast<int>(pid));
}

bool ShardCoordinator::send(std::size_t index, const std::string& payload) {
  Shard& s = shards_[index];
  if (!s.alive) return false;
  if (!write_frame(s.to_fd, payload)) {
    CAMELOT_TRACE_MSG(obs::kTraceSched, "shard %zu: write failed", index);
    drop(index);
    return false;
  }
  s.heard = std::chrono::steady_clock::now();
  s.bytes += 4 + payload.size();
  s.bandwidth->set(static_cast<std::int64_t>(s.bytes));
  return true;
}

bool ShardCoordinator::pump(Shard& s) {
  char buf[4096];
  while (true) {
    const ssize_t r = ::read(s.from_fd, buf, sizeof(buf));
    if (r > 0) {
      s.rbuf.append(buf, static_cast<std::size_t>(r));
      s.bytes += static_cast<std::size_t>(r);
      s.heard = std::chrono::steady_clock::now();
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    // EAGAIN: drained for now. EOF or an error: the worker is gone
    // once rbuf drains.
    const bool open = r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    s.bandwidth->set(static_cast<std::int64_t>(s.bytes));
    return open;
  }
}

template <typename OnFrame>
void ShardCoordinator::serve(OnFrame& on_frame) {
  using Clock = std::chrono::steady_clock;
  auto owes = [](const Shard& s) {
    return s.alive && (!s.pending.empty() || s.scrape_owed);
  };
  while (true) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_shard;
    Clock::time_point deadline = Clock::time_point::max();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (!shards_[i].alive) continue;
      fds.push_back({shards_[i].from_fd, POLLIN, 0});
      fd_shard.push_back(i);
      if (owes(shards_[i])) {
        deadline = std::min(deadline, shards_[i].heard + kSilenceLimit);
      }
    }
    if (deadline == Clock::time_point::max()) return;  // nothing owed
    const long long wait_ms = std::max<long long>(
        0, std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
               .count());
    const int rc = ::poll(fds.data(), fds.size(), static_cast<int>(wait_ms));
    if (rc < 0 && errno != EINTR) {
      throw std::runtime_error("ShardCoordinator: poll() failed");
    }
    const Clock::time_point now = Clock::now();
    for (std::size_t k = 0; k < fds.size(); ++k) {
      const std::size_t i = fd_shard[k];
      // A shard may have been dropped by an earlier one's re-dispatch.
      if (!shards_[i].alive) continue;
      if (rc > 0 && fds[k].revents != 0) {
        Shard& s = shards_[i];
        const bool open = pump(s);
        try {
          while (std::optional<std::string> payload =
                     take_frame(s.rbuf, s.rpos)) {
            WireReader r(*payload);
            const auto tag = static_cast<ShardFrame>(r.u8());
            // kError: the worker gave up on its own; the same fault.
            if (tag == ShardFrame::kError) {
              throw WireError("shard error: " + r.str());
            }
            // kSubmitDone is informational: pending tracks the primes.
            if (tag != ShardFrame::kSubmitDone) on_frame(i, tag, r);
          }
        } catch (const WireError& e) {
          CAMELOT_TRACE_MSG(obs::kTraceSched, "shard %zu: %s", i, e.what());
          drop(i);
          continue;
        }
        if (!open) drop(i);
      } else if (owes(shards_[i]) &&
                 now >= shards_[i].heard + kSilenceLimit) {
        CAMELOT_TRACE_MSG(obs::kTraceSched, "shard %zu: silent", i);
        drop(i);
      }
    }
  }
}

void ShardCoordinator::spread(const std::vector<std::size_t>& primes) {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].alive) live.push_back(i);
  }
  if (live.empty()) {
    throw std::runtime_error(
        "ShardCoordinator: every shard died with primes outstanding");
  }
  std::vector<std::vector<std::size_t>> share(shards_.size());
  for (std::size_t j = 0; j < primes.size(); ++j) {
    share[live[j % live.size()]].push_back(primes[j]);
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (share[i].empty()) continue;
    Shard& s = shards_[i];
    if (!s.alive) {  // dropped by an earlier submit's failed write
      spread(share[i]);
      continue;
    }
    // Pending first: a failed write drops the shard, which re-deals
    // exactly these primes.
    s.pending.insert(s.pending.end(), share[i].begin(), share[i].end());
    send(i, encode_submit(*job_, share[i]));
  }
}

void ShardCoordinator::drop(std::size_t index) {
  Shard& s = shards_[index];
  if (!s.alive) return;
  reap(s);
  deaths_counter_->inc();
  const std::vector<std::size_t> orphans(s.pending.begin(), s.pending.end());
  s.pending.clear();
  CAMELOT_TRACE_MSG(obs::kTraceSched, "shard %zu dropped, %zu primes pending",
                    index, orphans.size());
  if (orphans.empty()) return;
  retried_primes_ += orphans.size();
  retries_counter_->inc(orphans.size());
  spread(orphans);
}

void ShardCoordinator::reap(Shard& s) {
  s.alive = false;
  for (int* fd : {&s.to_fd, &s.from_fd}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  // Killed before it is reaped: a worker that is alive but off
  // protocol may never exit on its own. An already-exited worker is a
  // zombie until reaped, so the pid cannot have been reused.
  if (s.pid > 0) {
    ::kill(s.pid, SIGKILL);
    int status = 0;
    while (::waitpid(s.pid, &status, 0) < 0 && errno == EINTR) {
    }
    s.pid = -1;
  }
}

RunReport ShardCoordinator::run(const ShardJob& job) {
  const auto t0 = std::chrono::steady_clock::now();
  // The coordinator mirrors the worker's deterministic plan derivation
  // so it can lay reports out in plan order and CRT across the same
  // primes without trusting any single worker.
  std::unique_ptr<CamelotProblem> problem =
      make_problem_from_spec(job.problem_spec);
  const ProofSpec spec = problem->spec();
  const PrimePlan plan =
      plan_primes(spec, job.config.redundancy, job.config.num_primes);
  const std::size_t num_primes = plan.primes.size();

  std::vector<std::optional<PrimeRunReport>> reports(num_primes);
  std::vector<NodeStats> node_stats(job.config.num_nodes);
  for (std::size_t j = 0; j < node_stats.size(); ++j) {
    node_stats[j].node_id = j;
  }
  double worker_seconds = 0.0;

  auto on_frame = [&](std::size_t index, ShardFrame tag, WireReader& r) {
    if (tag != ShardFrame::kPrimeReport) {
      throw WireError("shard wire: unexpected frame tag");
    }
    // Decoded in full before it touches any state, so dropping the
    // shard on a broken frame loses nothing.
    PrimeReportFrame f = decode_prime_report(r);
    std::deque<std::size_t>& pending = shards_[index].pending;
    auto it = std::find(pending.begin(), pending.end(), f.prime_index);
    if (it == pending.end()) {
      throw WireError("shard wire: report for a prime the shard does not hold");
    }
    pending.erase(it);
    reports[f.prime_index] = std::move(f.report);
    for (const NodeStats& d : f.delta) {
      if (d.node_id < node_stats.size()) {
        node_stats[d.node_id].symbols_computed += d.symbols_computed;
        node_stats[d.node_id].seconds += d.seconds;
        worker_seconds += d.seconds;
      }
    }
  };

  std::vector<std::size_t> all(num_primes);
  for (std::size_t pi = 0; pi < num_primes; ++pi) all[pi] = pi;
  job_ = &job;
  try {
    spread(all);
    // Returns once no live shard holds a prime: every prime is then
    // settled, since a drop that leaves no survivor throws.
    serve(on_frame);
  } catch (...) {
    job_ = nullptr;
    for (Shard& s : shards_) s.pending.clear();
    throw;
  }
  job_ = nullptr;

  std::vector<PrimeRunReport> per_prime;
  per_prime.reserve(num_primes);
  for (std::optional<PrimeRunReport>& pr : reports) {
    per_prime.push_back(std::move(*pr));
  }
  RunReport out = assemble_report(spec, plan, std::move(per_prime),
                                  std::move(node_stats), worker_seconds);
  job_latency_->observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  return out;
}

obs::Registry::Snapshot ShardCoordinator::fleet_snapshot() {
  // Each scrape is first merged into `trial`, so one that does not
  // parse or merge is its shard's fault and is never half-merged; the
  // good ones are then folded in shard order.
  obs::Registry::Snapshot trial = metrics_->snapshot();
  std::vector<std::optional<obs::Registry::Snapshot>> parsed(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    last_scrapes_[i].clear();
    shards_[i].scrape_owed = send(i, tagged(ShardFrame::kObsRequest));
  }
  auto on_frame = [&](std::size_t index, ShardFrame tag, WireReader& r) {
    Shard& s = shards_[index];
    if (tag != ShardFrame::kObsSnapshot || !s.scrape_owed) {
      throw WireError("shard wire: unexpected frame tag");
    }
    std::string json = r.str();
    try {
      obs::Registry::Snapshot snap = obs::parse_json_snapshot(json);
      obs::Registry::Snapshot next = trial;
      obs::merge_snapshot(next, snap);
      trial = std::move(next);
      parsed[index] = std::move(snap);
    } catch (const std::exception& e) {
      throw WireError(std::string("shard scrape: ") + e.what());
    }
    s.scrape_owed = false;
    last_scrapes_[index] = std::move(json);
  };
  serve(on_frame);
  obs::Registry::Snapshot fleet = metrics_->snapshot();
  for (const std::optional<obs::Registry::Snapshot>& snap : parsed) {
    if (snap) obs::merge_snapshot(fleet, *snap);
  }
  return fleet;
}

std::string ShardCoordinator::fleet_prometheus() {
  return obs::render_prometheus(fleet_snapshot());
}

std::string ShardCoordinator::fleet_json() {
  return obs::render_json(fleet_snapshot());
}

}  // namespace camelot
