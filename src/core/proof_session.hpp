// Staged, resumable Camelot pipeline (paper §1.3, steps 1-3).
//
// The paper's protocol is explicitly staged: nodes prepare their
// symbol chunks, the codeword is broadcast (and possibly corrupted),
// honest parties decode, spot-check the putative proof, and CRT-
// reconstruct the integer answers. ProofSession exposes exactly those
// stages as first-class operations over one problem × one PrimePlan,
// with independent per-prime state:
//
//   ProofSession s(problem, config);
//   s.prepare();              // step 1: per-node symbol chunks
//   s.transport(&adversary);  // broadcast bus, adversarial channel
//   s.decode();               // step 2: Gao decode + node implication
//   s.verify();               // step 3: random spot checks
//   s.recover();              // residues per prime
//   RunReport r = s.report(); // CRT across primes
//
// Because each prime carries its own stage cursor, a caller can
// re-run only a failed prime (re-transport on a clean channel, then
// decode_prime/verify_prime) instead of repeating the whole job — the
// Reed--Solomon code and subproduct tree for that prime are already
// built and stay cached in the session.
//
// One chunk driver sits behind every one-shot entry point: run(),
// run_streaming() and run_prime_streaming() all push per-(prime, node)
// chunks through a StreamingSymbolChannel into a resumable decoder,
// and prepare_prime() reuses the driver's evaluation step and thread
// pool. The staged transport pushes the prepared chunks through the
// same channels, so there is one transport abstraction.
//
// Substitution note: the paper's physical network is modelled by an
// in-process bus (the session's StreamingSymbolChannel); the per-node
// computation is the genuine algorithm a physical node would run, and
// the symbol counts reported equal the network traffic the paper
// describes (footnote 6).
//
// Field state (Montgomery contexts, NTT twiddle tables) comes from a
// FieldCache — the process-global one unless the caller injects a
// specific cache (ProofService injects its own shared instance).
// All randomness is drawn from derive_stream(config.seed, prime,
// stage), so results are identical regardless of num_threads.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/byzantine.hpp"
#include "core/cluster_types.hpp"
#include "core/prime_plan.hpp"
#include "core/proof_problem.hpp"
#include "core/symbol_stream.hpp"
#include "field/field_cache.hpp"
#include "obs/metrics.hpp"
#include "rs/code_cache.hpp"
#include "rs/gao.hpp"

namespace camelot {

// Per-prime progress through the pipeline.
enum class SessionStage {
  kCreated,      // plan chosen, nothing computed yet
  kPrepared,     // clean codeword (the nodes' honest symbols) ready
  kTransported,  // received word available (possibly corrupted)
  kDecoded,      // Gao decode attempted
  kVerified,     // spot checks done on the decoded proof
  kRecovered,    // answer residues extracted
};

// Short names for the two channels the staged transport is most often
// given.
using LosslessChannel = LosslessStreamingChannel;
using AdversarialChannel = AdversarialStreamingChannel;

// Thrown by run_prime_streaming when its cancel callback reports
// expiry at a chunk boundary: the in-flight prime aborts instead of
// finishing work whose job has already been discarded. The prime's
// state is reset to kCreated before the throw, so the session stays
// usable (e.g. for a selective re-run with a fresh budget).
class SessionCancelled : public std::runtime_error {
 public:
  SessionCancelled()
      : std::runtime_error(
            "ProofSession: prime pipeline cancelled mid-flight") {}
};

// Cooperative cancellation probe, polled at chunk compute/absorb
// boundaries. Must be cheap and thread-safe; returning true aborts.
using SessionCancelFn = std::function<bool()>;

class ProofSession {
 public:
  // The problem must outlive the session. `cache` defaults to
  // FieldCache::global(); `plan` lets a ProofService inject a cached
  // PrimePlan (nullptr recomputes it from the spec); `codes` lets a
  // service share built ReedSolomonCode instances across jobs
  // (nullptr now falls back to CodeCache::global(), so stand-alone
  // sessions reuse the inverse-enriched subproduct trees across
  // invocations too); `metrics` is the registry the session's
  // per-stage span histograms land in (nullptr falls back to
  // obs::Registry::global(); ProofService injects its own so one
  // scrape of the service covers its sessions' stage latencies).
  ProofSession(const CamelotProblem& problem, ClusterConfig config,
               std::shared_ptr<FieldCache> cache = nullptr,
               std::shared_ptr<const PrimePlan> plan = nullptr,
               std::shared_ptr<CodeCache> codes = nullptr,
               std::shared_ptr<obs::Registry> metrics = nullptr);

  const ClusterConfig& config() const noexcept { return config_; }
  const PrimePlan& plan() const noexcept { return *plan_; }
  std::size_t num_primes() const noexcept { return primes_.size(); }

  // ---- Whole-session stages ---------------------------------------------
  // Each call advances every prime sitting exactly at the preceding
  // stage and leaves the others untouched, so a selectively re-run
  // prime is never clobbered by a later whole-session call.
  ProofSession& prepare();
  ProofSession& transport(const StreamingSymbolChannel& channel);
  // Convenience: adversarial channel when non-null, lossless otherwise.
  ProofSession& transport(const ByzantineAdversary* adversary = nullptr);
  ProofSession& decode();
  ProofSession& verify();
  ProofSession& recover();

  // One-shot pipeline; resets any existing per-prime state first.
  // Drives run_streaming over an adversarial (when non-null) or
  // lossless channel — the reports are bit-identical to run_barrier.
  RunReport run(const ByzantineAdversary* adversary = nullptr);

  // One-shot pipeline over the whole-stage barriers (prepare every
  // prime, then transport, then decode, ...). Kept as the reference
  // the overlapped runs are checked against; results are bit-identical.
  RunReport run_barrier(const ByzantineAdversary* adversary = nullptr);

  // ---- Streaming pipeline -----------------------------------------------
  // Overlapped one-shot run: per-(prime, node) chunks are pushed into
  // the channel's per-prime streams the moment they are computed, the
  // resumable Gao decoder absorbs them as they arrive, and a prime
  // decodes/verifies/recovers as soon as its stream drains — while
  // other primes are still preparing. Resets existing state first.
  // Worker threads: config.num_threads (0 = hardware concurrency).
  RunReport run_streaming(const StreamingSymbolChannel& channel);

  // One prime's full pipeline (prepare -> stream -> decode -> verify
  // -> recover): the chunk driver of run_streaming over this prime
  // alone, on the calling thread (or config.num_threads node workers
  // when > 1). Safe to call concurrently for *distinct* primes of one
  // session — this is the unit the ProofService scheduler steals
  // across jobs. `cancel`, when set, is polled at every chunk, absorb
  // and tail-drain boundary; once it returns true the prime resets to
  // kCreated and the call throws SessionCancelled — this is how an
  // expired job's deadline reaches *in-flight* primes instead of only
  // unstarted ones.
  void run_prime_streaming(std::size_t prime_index,
                           const StreamingSymbolChannel& channel,
                           const SessionCancelFn& cancel = nullptr);

  // ---- Per-prime stages (selective re-run) ------------------------------
  // Preconditions are checked: each stage requires the prime to have
  // reached at least the preceding stage (std::logic_error otherwise).
  // Re-running a stage invalidates the stages after it.
  void prepare_prime(std::size_t prime_index);
  // Pushes one chunk per node from sent() through a fresh stream of
  // `channel`, closes it and drains it into received(). The staged
  // path has no repair: a channel that delivers short (an erasure
  // channel) throws std::logic_error and the prime stays kPrepared.
  void transport_prime(std::size_t prime_index,
                       const StreamingSymbolChannel& channel);
  void decode_prime(std::size_t prime_index);
  void verify_prime(std::size_t prime_index);
  void recover_prime(std::size_t prime_index);
  // Back to kCreated (the code/tree stay cached for the re-run).
  void reset_prime(std::size_t prime_index);

  // ---- Inspection --------------------------------------------------------
  u64 prime(std::size_t prime_index) const;
  SessionStage stage(std::size_t prime_index) const;
  // Clean codeword as computed by the nodes (requires kPrepared).
  const std::vector<u64>& sent(std::size_t prime_index) const;
  // Post-transport word (requires kTransported).
  const std::vector<u64>& received(std::size_t prime_index) const;
  // Per-prime outcome snapshot (fields are valid up to the stage the
  // prime has reached).
  const PrimeRunReport& prime_report(std::size_t prime_index) const;
  // Union of implicated nodes across decoded primes.
  std::vector<std::size_t> implicated_nodes() const;
  // True iff every prime decoded, verified and recovered
  // (report().success).
  bool complete() const;

  // Snapshot of the overall outcome through assemble_report.
  RunReport report() const;

 private:
  struct PrimeState {
    u64 prime = 0;
    SessionStage stage = SessionStage::kCreated;
    FieldOps ops;
    // Built on first use; shared via the CodeCache when one was
    // injected (deep-const, so cross-job sharing is safe).
    std::shared_ptr<const ReedSolomonCode> code;
    std::vector<u64> sent;
    std::vector<u64> received;
    GaoResult decoded;
    PrimeRunReport report;

    explicit PrimeState(u64 q, FieldOps o) : prime(q), ops(std::move(o)) {
      report.prime = q;
    }
  };

  PrimeState& state_at(std::size_t prime_index);
  const PrimeState& state_at(std::size_t prime_index) const;
  const PrimeState& state_at_least(std::size_t prime_index,
                                   SessionStage min_stage,
                                   const char* what) const;
  void invalidate_downstream(PrimeState& st, SessionStage new_stage);
  // Back to kCreated with the code built and a zeroed sent word.
  void restart_prime(PrimeState& st);
  // Static metadata of st's broadcast (owners, points, stream seed).
  StreamSpec stream_spec(const PrimeState& st) const;
  // st.sent[lo, hi) as a chunk produced by `node`.
  SymbolChunk sent_chunk(const PrimeState& st, std::size_t node, std::size_t lo,
                         std::size_t hi) const;
  // The chunk driver behind every one-shot entry point: restarts the
  // given primes, then runs their (prime, node) tasks on the node
  // pool — evaluate the node's message sub-chunk, push the chunks that
  // are final, extend parity after a prime's last message chunk and
  // release its deferred chunks. The worker that pushes a prime's
  // last chunk drains the tail, repairs and settles the prime while
  // other primes may still be preparing. `cancel` is probed at every
  // chunk, absorb and tail-drain boundary; SessionCancelled resets
  // the given primes.
  void drive(std::span<const std::size_t> prime_indices,
             const StreamingSymbolChannel& channel,
             const SessionCancelFn& cancel);
  // Absorbs what `stream` delivers right now or, with
  // `until_exhausted`, everything up to exhaustion; `cancel` is probed
  // before every poll.
  void drain_stream(PrimeState& st, SymbolStream& stream,
                    StreamingGaoDecoder& decoder, const SessionCancelFn& cancel,
                    bool until_exhausted, const char* what);
  // Back half of a drained stream: decode -> verify -> recover from
  // the decoder's word when every symbol was `delivered`; otherwise
  // (spent repair budget) the prime settles as a decode failure with
  // an empty received word — never a hang or a throw.
  void settle_prime(PrimeState& st, const StreamingGaoDecoder& decoder,
                    bool delivered);
  // Selective repair when a drained stream left the decoder short
  // (lossy transports): round by round, re-arms the stream via
  // reopen_for_repair, re-evaluates only the missing *message*
  // positions through the owners' evaluators (an evaluator-prefix
  // call under systematic encoding), re-ships the missing parity tail
  // from the systematic extension already in st.sent, and drains the
  // re-pushed chunks into the decoder. Returns true once the decoder
  // holds every symbol (at once when nothing is missing), false once
  // config.repair_budget rounds are spent with symbols still missing;
  // throws std::logic_error when the transport accepts no repair
  // traffic at all (it cannot lose symbols by contract).
  bool repair_stream(PrimeState& st, SymbolStream& stream,
                     StreamingGaoDecoder& decoder,
                     const SessionCancelFn& cancel);
  // [lo, hi) bounds of node j's contiguous codeword chunk (the closed
  // form of symbol_owner: owner(i) = floor(i*K/e)).
  std::pair<std::size_t, std::size_t> node_chunk(std::size_t node) const;
  // Number of leading codeword positions the evaluator computes
  // directly: d+1 on the systematic fast path, the full code length
  // when the path is off (or the code is rate-1).
  std::size_t message_prefix() const;
  // Count of nodes whose chunk intersects [0, message_prefix()) — the
  // nodes that perform evaluator work on the systematic path.
  std::size_t message_node_count() const;
  // Evaluates codeword positions [lo, hi) into st.sent on node's
  // behalf (one batched evaluator call) and records its stats.
  void evaluate_node_range(PrimeState& st, std::size_t node, std::size_t lo,
                           std::size_t hi);
  // Evaluates node's chunk clipped to the message prefix; false when
  // the chunk is parity-only (no evaluator work).
  bool evaluate_message_chunk(PrimeState& st, std::size_t node);
  // Extends the message prefix already sitting in st.sent[0, m) to
  // the parity tail st.sent[m, e) via the code's systematic encoder.
  void extend_parity(PrimeState& st);
  // Stage bodies shared by the staged stage methods (which add
  // precondition checks and wall timing) and the chunk driver.
  void apply_decode(PrimeState& st, GaoResult decoded);
  void apply_verify(PrimeState& st);
  void apply_recover(PrimeState& st);
  void reset_for_run();

  const CamelotProblem& problem_;
  ClusterConfig config_;
  ProofSpec spec_;
  std::shared_ptr<FieldCache> cache_;
  std::shared_ptr<CodeCache> codes_;  // never null (global() fallback)
  std::shared_ptr<obs::Registry> metrics_;  // never null (global() fallback)
  // Per-stage latency histograms resolved once at construction
  // (registry lookups lock; steady-state span observes do not). The
  // streaming pipeline feeds the same histograms at its natural
  // granularity: prepare per node chunk, transport per absorbed
  // chunk, decode/verify/recover per prime.
  obs::Histogram* stage_prepare_ = nullptr;
  obs::Histogram* stage_transport_ = nullptr;
  obs::Histogram* stage_decode_ = nullptr;
  obs::Histogram* stage_verify_ = nullptr;
  obs::Histogram* stage_recover_ = nullptr;
  std::shared_ptr<const PrimePlan> plan_;
  std::vector<std::size_t> owners_;  // symbol index -> owning node
  std::vector<PrimeState> primes_;
  // Guards node_stats_ (written concurrently by node workers and by
  // concurrent per-prime streaming pipelines).
  std::mutex stats_mu_;
  std::vector<NodeStats> node_stats_;
  // Accumulated stage seconds. Atomic because concurrent per-prime
  // streaming pipelines each add their elapsed time; under overlap
  // this is closer to busy-time than wall-clock.
  std::atomic<double> wall_seconds_{0.0};
};

// The overall outcome from per-prime reports laid out in plan order.
// success iff there is at least one prime and every prime decoded,
// passed verification and recovered all spec.answer_count residues;
// then the answers are CRT-reconstructed across plan.primes. Both
// ProofSession::report() and ShardCoordinator::run() assemble here.
RunReport assemble_report(const ProofSpec& spec, const PrimePlan& plan,
                          std::vector<PrimeRunReport> per_prime,
                          std::vector<NodeStats> node_stats,
                          double wall_seconds);

}  // namespace camelot
