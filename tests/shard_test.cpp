// Tests for the sharded multi-process service: golden equality of the
// coordinator's assembled RunReport against a single-process
// ProofSession on the same job (lossless, lossy, and mixed
// loss+corruption), shard-death retry, the frame-size cap on both ends
// of the wire, off-protocol workers (unknown tags, lying vector counts)
// killed and retried, and the fleet observability rollup (merged scrape ==
// element-wise sum of the per-process scrapes; deterministic counts
// match the single-process run).
//
// Requires the shardd binary; ctest points CAMELOT_SHARDD at the
// build-tree target. Suites skip (not fail) when it is missing so the
// test binary stays runnable by hand from anywhere.
#include <gtest/gtest.h>

#include <limits.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/erasure_stream.hpp"
#include "core/proof_session.hpp"
#include "core/shard.hpp"
#include "core/symbol_stream.hpp"

namespace camelot {
namespace {

constexpr const char* kProblemSpec = "triangle:12:26:9";

bool shardd_available() {
  const char* path = std::getenv("CAMELOT_SHARDD");
  if (path && *path) return ::access(path, X_OK) == 0;
  return ::access("./shardd", X_OK) == 0;
}

#define REQUIRE_SHARDD()                                              \
  do {                                                                \
    if (!shardd_available()) {                                        \
      GTEST_SKIP() << "shardd binary not found (set CAMELOT_SHARDD)"; \
    }                                                                 \
  } while (0)

ShardJob base_job() {
  ShardJob job;
  job.problem_spec = kProblemSpec;
  job.config.num_nodes = 6;
  job.config.redundancy = 2.0;
  job.config.num_threads = 1;
  // More primes than shards, so a 3-shard fleet has every worker busy
  // (non-zero bandwidth) and a crashed worker always leaves retryable
  // primes behind.
  job.config.num_primes = 5;
  return job;
}

// The single-process reference: same problem, same channel stack,
// same sequential per-prime driver the workers run.
RunReport run_single_process(const ShardJob& job,
                             std::shared_ptr<obs::Registry> registry = nullptr) {
  std::unique_ptr<CamelotProblem> problem =
      make_problem_from_spec(job.problem_spec);
  std::unique_ptr<ByzantineAdversary> adversary;
  std::unique_ptr<StreamingSymbolChannel> base;
  if (job.adversary) {
    adversary = std::make_unique<ByzantineAdversary>(
        job.corrupt_nodes, job.strategy, job.adversary_seed);
    base = std::make_unique<AdversarialStreamingChannel>(*adversary);
  } else {
    base = std::make_unique<LosslessStreamingChannel>();
  }
  std::unique_ptr<StreamingSymbolChannel> top;
  if (job.loss_rate > 0.0) {
    top = std::make_unique<ErasureStreamingChannel>(
        LossSpec{job.loss_rate, job.loss_seed}, base.get());
  }
  ProofSession session(*problem, job.config, nullptr, nullptr, nullptr,
                       std::move(registry));
  const StreamingSymbolChannel& channel = top ? *top : *base;
  for (std::size_t pi = 0; pi < session.num_primes(); ++pi) {
    session.run_prime_streaming(pi, channel);
  }
  return session.report();
}

// Bit-identical up to timing: answers, per-prime reports (including
// the repair counters) and per-node evaluator work must all match.
void expect_reports_equal(const RunReport& a, const RunReport& b) {
  ASSERT_EQ(a.success, b.success);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.proof_symbols, b.proof_symbols);
  EXPECT_EQ(a.code_length, b.code_length);
  EXPECT_EQ(a.num_primes, b.num_primes);
  ASSERT_EQ(a.per_prime.size(), b.per_prime.size());
  for (std::size_t pi = 0; pi < a.per_prime.size(); ++pi) {
    EXPECT_EQ(a.per_prime[pi].prime, b.per_prime[pi].prime);
    EXPECT_EQ(a.per_prime[pi].decode_status, b.per_prime[pi].decode_status);
    EXPECT_EQ(a.per_prime[pi].verified, b.per_prime[pi].verified);
    EXPECT_EQ(a.per_prime[pi].answer_residues,
              b.per_prime[pi].answer_residues);
    EXPECT_EQ(a.per_prime[pi].corrected_symbols,
              b.per_prime[pi].corrected_symbols);
    EXPECT_EQ(a.per_prime[pi].implicated_nodes,
              b.per_prime[pi].implicated_nodes);
    EXPECT_EQ(a.per_prime[pi].repair_rounds, b.per_prime[pi].repair_rounds);
    EXPECT_EQ(a.per_prime[pi].repaired_symbols,
              b.per_prime[pi].repaired_symbols);
  }
  ASSERT_EQ(a.node_stats.size(), b.node_stats.size());
  for (std::size_t j = 0; j < a.node_stats.size(); ++j) {
    EXPECT_EQ(a.node_stats[j].symbols_computed,
              b.node_stats[j].symbols_computed)
        << "node " << j;
  }
}

const obs::Histogram::Snapshot* find_histogram(
    const obs::Registry::Snapshot& snap, const std::string& name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

std::uint64_t counter_value(const obs::Registry::Snapshot& snap,
                            const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

// ---- Problem factory -----------------------------------------------------

TEST(ShardProtocol, ProblemFactoryParsesAndRejects) {
  auto problem = make_problem_from_spec("triangle:10:20:3");
  EXPECT_EQ(problem->name(), "count-triangles");
  EXPECT_THROW(make_problem_from_spec("triangle:0:0:1"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("hexagon:10:20:3"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("triangle:10"), std::invalid_argument);

  auto clique = make_problem_from_spec("clique:10:20:6:3");
  EXPECT_EQ(clique->name(), "count-k-cliques");
  // 6 | k is Theorem 1's divisibility requirement.
  EXPECT_THROW(make_problem_from_spec("clique:10:20:5:3"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("clique:10:20:0:3"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("clique:0:20:6:3"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("clique:10:20:6"),
               std::invalid_argument);

  auto ov = make_problem_from_spec("ov:8:5:0.5:11");
  EXPECT_EQ(ov->name(), "orthogonal-vectors");
  EXPECT_THROW(make_problem_from_spec("ov:0:5:0.5:11"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("ov:8:0:0.5:11"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("ov:8:5:1.5:11"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("ov:8:5:0.5"), std::invalid_argument);
}

TEST(ShardProtocol, WorkerRejectsOverCapFrameHeader) {
  // A header claiming 0xFFFFFFFF payload bytes must be refused before
  // anything is allocated: the worker answers a kError frame and exits
  // 1 instead of committing 4 GiB and waiting for bytes that never
  // come.
  int to_worker[2];
  int from_worker[2];
  ASSERT_EQ(::pipe(to_worker), 0);
  ASSERT_EQ(::pipe(from_worker), 0);
  const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(to_worker[1], header, sizeof(header)), 4);

  rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  EXPECT_EQ(run_shard_worker(to_worker[0], from_worker[1]), 1);
  rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  // ru_maxrss is in KiB; the refused allocation would add ~4 GiB.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 256L * 1024);

  ::close(from_worker[1]);
  std::string reply;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(from_worker[0], buf, sizeof(buf))) > 0) {
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(from_worker[0]);
  ::close(to_worker[0]);
  ::close(to_worker[1]);
  // u32 payload length, then the kError tag and its message.
  ASSERT_GT(reply.size(), 5u);
  EXPECT_EQ(static_cast<unsigned char>(reply[4]),
            static_cast<unsigned char>(ShardFrame::kError));
  EXPECT_NE(reply.find("shard wire:"), std::string::npos) << reply;
}

// ---- Golden equality -----------------------------------------------------

TEST(ShardCoordinatorTest, LosslessMatchesSingleProcess) {
  REQUIRE_SHARDD();
  const ShardJob job = base_job();
  const RunReport single = run_single_process(job);
  ASSERT_TRUE(single.success);

  ShardOptions options;
  options.num_shards = 3;
  ShardCoordinator fleet(options);
  const RunReport sharded = fleet.run(job);
  expect_reports_equal(sharded, single);
  EXPECT_EQ(fleet.retried_primes(), 0u);
}

TEST(ShardCoordinatorTest, MixedLossAndCorruptionMatchesSingleProcess) {
  REQUIRE_SHARDD();
  ShardJob job = base_job();
  job.loss_rate = 0.05;
  job.loss_seed = 99;
  job.adversary = true;
  // One corrupt node of six keeps the corrupted share (e/6 symbols)
  // inside the unique-decoding radius (~(d+1)/2 at redundancy 2).
  job.corrupt_nodes = {5};
  job.strategy = ByzantineStrategy::kColludingPolynomial;
  job.adversary_seed = 1337;

  const RunReport single = run_single_process(job);
  ASSERT_TRUE(single.success);
  std::size_t repair_rounds = 0;
  for (const auto& pr : single.per_prime) repair_rounds += pr.repair_rounds;
  EXPECT_GT(repair_rounds, 0u) << "loss rate should force selective repair";

  ShardOptions options;
  options.num_shards = 3;
  ShardCoordinator fleet(options);
  const RunReport sharded = fleet.run(job);
  expect_reports_equal(sharded, single);
}

TEST(ShardCoordinatorTest, SurvivesWorkerCrashAndRetries) {
  REQUIRE_SHARDD();
  const ShardJob job = base_job();
  const RunReport single = run_single_process(job);

  ShardOptions options;
  options.num_shards = 3;
  options.crash_shard = 0;
  options.crash_after_primes = 1;
  ShardCoordinator fleet(options);
  const RunReport sharded = fleet.run(job);

  // The dead worker's unfinished primes re-ran on survivors; the
  // assembled report is still bit-identical to the no-crash run.
  expect_reports_equal(sharded, single);
  EXPECT_EQ(fleet.live_shards(), 2u);
  EXPECT_EQ(counter_value(fleet.metrics().snapshot(),
                          "camelot_shard_deaths_total"),
            1u);
  // Five primes round-robined over three shards leave the crashed
  // worker (shard 0: primes 0 and 3) one unfinished prime to retry.
  EXPECT_GT(fleet.retried_primes(), 0u);
}

// Runs base_job() on a three-shard fleet whose shard 0 (the one handed
// the fault-injection argument) runs the /bin/sh command `liar`; the
// other shards exec the real worker. The coordinator must kill the
// liar and retry its primes on the survivors: the assembled report
// equals `single`, one shard is gone, and some primes were retried.
void expect_liar_dropped(const std::string& liar, const RunReport& single) {
  const char* env = std::getenv("CAMELOT_SHARDD");
  char real[PATH_MAX];
  ASSERT_NE(::realpath(env && *env ? env : "./shardd", real), nullptr);
  char script[] = "/tmp/camelot_liar_XXXXXX";
  const int fd = ::mkstemp(script);
  ASSERT_GE(fd, 0);
  std::string body = "#!/bin/sh\ncase \"$1\" in --crash-after-primes=*)\n";
  body += "  " + liar + ";;\nesac\n";
  body += "exec '" + std::string(real) + "' \"$@\"\n";
  ASSERT_EQ(::write(fd, body.data(), body.size()),
            static_cast<ssize_t>(body.size()));
  ::close(fd);
  ASSERT_EQ(::chmod(script, 0755), 0);

  ShardOptions options;
  options.num_shards = 3;
  options.shardd_path = script;
  options.crash_shard = 0;
  options.crash_after_primes = 1;
  {
    ShardCoordinator fleet(options);
    const RunReport sharded = fleet.run(base_job());
    expect_reports_equal(sharded, single);
    EXPECT_EQ(fleet.live_shards(), 2u);
    EXPECT_GT(fleet.retried_primes(), 0u);
  }
  ::unlink(script);
}

// printf(1) octal escapes for a length-prefixed frame carrying
// `payload`, as the shell stand-ins write it.
std::string frame_printf(const std::string& payload) {
  std::string framed;
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) framed.push_back(char((len >> (8 * i)) & 0xff));
  framed += payload;
  std::string out = "printf '";
  for (unsigned char c : framed) {
    char esc[8];
    std::snprintf(esc, sizeof(esc), "\\%03o", c);
    out += esc;
  }
  return out + "'";
}

TEST(ShardCoordinatorTest, OverCapFrameMarksShardDeadAndRetries) {
  REQUIRE_SHARDD();
  // A header claiming 0xFFFFFFFF payload bytes: the coordinator drops
  // the liar instead of waiting for 4 GiB.
  expect_liar_dropped("printf '\\377\\377\\377\\377'; exec cat >/dev/null",
                      run_single_process(base_job()));
}

TEST(ShardCoordinatorTest, UnknownFrameTagKillsShardAndRetries) {
  REQUIRE_SHARDD();
  // A well-formed one-byte frame with an unknown tag, then a worker
  // that stays alive without reading or answering. The coordinator
  // must kill it rather than wait; the sleep is bounded so a
  // coordinator that waits fails instead of hanging.
  expect_liar_dropped(frame_printf(std::string(1, '\x7f')) + "; exec sleep 20",
                      run_single_process(base_job()));
}

TEST(ShardCoordinatorTest, LyingVectorCountAllocatesNothing) {
  REQUIRE_SHARDD();
  // Prime reports whose counts claim far more entries than their
  // bodies carry, each body ending right after the count: 2^26 u64 in
  // the first vector (512 MiB), then 2^22 node-stats deltas (96 MiB)
  // after three empty vectors. The reader must see the short body
  // before allocating, then drop the shard. Peak RSS only rises, so a
  // case that allocates shows up even after the other one did not.
  std::string head(1, char(ShardFrame::kPrimeReport));
  head += std::string(8 + 8 + 1 + 1, '\0');  // index, prime, status
  const std::string first_vector = head + std::string("\0\0\0\x04", 4);
  const std::string deltas = head + std::string(4 + 4, '\0') +  // vectors
                             std::string(4 * 8, '\0') +  // step counters
                             std::string(4, '\0') +      // residues
                             std::string("\0\0\x40\0", 4);  // deltas
  const RunReport single = run_single_process(base_job());
  for (const std::string& report : {first_vector, deltas}) {
    rusage before{};
    ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
    expect_liar_dropped(frame_printf(report) + "; exec sleep 20", single);
    rusage after{};
    ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
    EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024)  // KiB
        << "peak RSS grew by " << (after.ru_maxrss - before.ru_maxrss)
        << " KiB (payload " << report.size() << " bytes)";
  }
}

TEST(ShardCoordinatorTest, WorkersInheritNoSiblingPipes) {
  REQUIRE_SHARDD();
  // The last-spawned shard (the one handed the fault-injection
  // argument) runs a stand-in that lists its open descriptors, then
  // execs the real worker without the argument. Besides its own
  // stdin/stdout it may hold what the test process holds itself (a
  // captured stderr, say), but no end of an earlier sibling's pipes:
  // an inherited write end would keep that sibling's stdin open after
  // the coordinator closes it.
  const char* env = std::getenv("CAMELOT_SHARDD");
  char real[PATH_MAX];
  ASSERT_NE(::realpath(env && *env ? env : "./shardd", real), nullptr);
  char script[] = "/tmp/camelot_fds_XXXXXX";
  const int fd = ::mkstemp(script);
  ASSERT_GE(fd, 0);
  const std::string listing = std::string(script) + ".fds";
  std::string body = "#!/bin/sh\ncase \"$1\" in --crash-after-primes=*)\n";
  // The subshell redirects in its own process, so the listed fds of
  // the stand-in shell ($$) are exactly what the worker would inherit.
  body += "  ( ls -l /proc/$$/fd ) > '" + listing + "'; exec '" +
          std::string(real) + "';;\nesac\n";
  body += "exec '" + std::string(real) + "' \"$@\"\n";
  ASSERT_EQ(::write(fd, body.data(), body.size()),
            static_cast<ssize_t>(body.size()));
  ::close(fd);
  ASSERT_EQ(::chmod(script, 0755), 0);

  std::set<std::string> own_pipes;
  namespace fs = std::filesystem;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const std::string target =
        fs::read_symlink(entry.path(), ec).string();
    if (target.rfind("pipe:", 0) == 0) own_pipes.insert(target);
  }

  const ShardJob job = base_job();
  const RunReport single = run_single_process(job);
  ShardOptions options;
  options.num_shards = 3;
  options.shardd_path = script;
  options.crash_shard = 2;
  options.crash_after_primes = 1;
  {
    ShardCoordinator fleet(options);
    const RunReport sharded = fleet.run(job);
    expect_reports_equal(sharded, single);
    EXPECT_EQ(fleet.live_shards(), 3u);
  }

  // fd -> pipe for every pipe the stand-in held.
  std::ifstream in(listing);
  ASSERT_TRUE(in.good()) << "stand-in wrote no descriptor listing";
  std::map<int, std::string> pipes;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t arrow = line.find(" -> pipe:");
    if (arrow == std::string::npos) continue;
    const std::size_t space = line.rfind(' ', arrow - 1);
    pipes[std::stoi(line.substr(space + 1, arrow - space - 1))] =
        line.substr(arrow + 4);
  }
  ASSERT_TRUE(pipes.count(0) == 1 && pipes.count(1) == 1)
      << "the worker's stdin/stdout are not pipes";
  std::string foreign;
  for (const auto& [fd_num, target] : pipes) {
    if (fd_num <= 1 || own_pipes.count(target) != 0) continue;
    foreign += std::to_string(fd_num) + " -> " + target + "\n";
  }
  EXPECT_TRUE(foreign.empty()) << "inherited sibling pipe ends:\n" << foreign;
  ::unlink(script);
  ::unlink(listing.c_str());
}

TEST(ShardCoordinatorTest, ReusableAcrossJobs) {
  REQUIRE_SHARDD();
  const ShardJob job = base_job();
  ShardOptions options;
  options.num_shards = 2;
  ShardCoordinator fleet(options);
  const RunReport first = fleet.run(job);
  const RunReport second = fleet.run(job);
  expect_reports_equal(first, second);
}

// ---- Fleet observability rollup ------------------------------------------

TEST(ShardFleetObs, RollupEqualsSumOfShardScrapes) {
  REQUIRE_SHARDD();
  const ShardJob job = base_job();
  ShardOptions options;
  options.num_shards = 3;
  ShardCoordinator fleet(options);
  const RunReport sharded = fleet.run(job);
  ASSERT_TRUE(sharded.success);

  const obs::Registry::Snapshot coordinator = fleet.metrics().snapshot();
  const obs::Registry::Snapshot merged = fleet.fleet_snapshot();
  const std::vector<std::string>& scrapes = fleet.last_shard_scrapes();
  ASSERT_EQ(scrapes.size(), 3u);

  // Rebuild the rollup by hand from the raw per-shard JSON and the
  // coordinator's own scrape; the fleet snapshot must match it
  // metric by metric, bin by bin.
  obs::Registry::Snapshot expected = coordinator;
  std::size_t live = 0;
  for (const std::string& scrape : scrapes) {
    if (scrape.empty()) continue;
    ++live;
    obs::merge_snapshot(expected, obs::parse_json_snapshot(scrape));
  }
  ASSERT_EQ(live, 3u);

  ASSERT_EQ(merged.histograms.size(), expected.histograms.size());
  for (std::size_t i = 0; i < merged.histograms.size(); ++i) {
    EXPECT_EQ(merged.histograms[i].first, expected.histograms[i].first);
    EXPECT_EQ(merged.histograms[i].second.bins,
              expected.histograms[i].second.bins)
        << merged.histograms[i].first;
  }
  ASSERT_EQ(merged.counters.size(), expected.counters.size());
  for (std::size_t i = 0; i < merged.counters.size(); ++i) {
    EXPECT_EQ(merged.counters[i], expected.counters[i]);
  }

  // Per-shard bandwidth gauges exist and saw real traffic.
  for (std::size_t i = 0; i < 3; ++i) {
    bool found = false;
    for (const auto& [name, value] : merged.gauges) {
      if (name ==
          "camelot_shard_bandwidth_bytes_shard" + std::to_string(i)) {
        found = true;
        EXPECT_GT(value, 0);
      }
    }
    EXPECT_TRUE(found) << "missing bandwidth gauge for shard " << i;
  }

  // Workers settled every prime exactly once.
  EXPECT_EQ(counter_value(merged, "camelot_shard_primes_total"),
            sharded.num_primes);
}

TEST(ShardFleetObs, DeterministicCountsMatchSingleProcessScrape) {
  REQUIRE_SHARDD();
  const ShardJob job = base_job();
  auto registry = std::make_shared<obs::Registry>();
  const RunReport single = run_single_process(job, registry);
  ASSERT_TRUE(single.success);
  const obs::Registry::Snapshot reference = registry->snapshot();

  ShardOptions options;
  options.num_shards = 3;
  ShardCoordinator fleet(options);
  const RunReport sharded = fleet.run(job);
  expect_reports_equal(sharded, single);
  const obs::Registry::Snapshot merged = fleet.fleet_snapshot();

  // Stage observation *counts* are deterministic (one decode/verify/
  // recover per prime, one prepare span per node chunk); only the
  // latency values inside the bins vary. Summed across the fleet they
  // must equal the single-process counts.
  for (const char* name :
       {"camelot_stage_prepare_seconds", "camelot_stage_decode_seconds",
        "camelot_stage_verify_seconds", "camelot_stage_recover_seconds"}) {
    const obs::Histogram::Snapshot* fleet_h = find_histogram(merged, name);
    const obs::Histogram::Snapshot* single_h =
        find_histogram(reference, name);
    ASSERT_NE(fleet_h, nullptr) << name;
    ASSERT_NE(single_h, nullptr) << name;
    EXPECT_EQ(fleet_h->count(), single_h->count()) << name;
  }
}

}  // namespace
}  // namespace camelot
