#include "core/proof_session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/arena.hpp"
#include "core/rng.hpp"
#include "core/verifier.hpp"
#include "field/crt.hpp"
#include "obs/trace.hpp"

namespace camelot {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// RAII accumulator: every public stage call adds its elapsed time to
// the session's wall clock. CAS loop instead of fetch_add so the
// atomic<double> accumulation stays portable across libstdc++ levels.
class WallTimer {
 public:
  explicit WallTimer(std::atomic<double>* total)
      : total_(total), t0_(std::chrono::steady_clock::now()) {}
  ~WallTimer() {
    const double dt = seconds_since(t0_);
    double cur = total_->load(std::memory_order_relaxed);
    while (!total_->compare_exchange_weak(cur, cur + dt,
                                          std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double>* total_;
  std::chrono::steady_clock::time_point t0_;
};

// First exception thrown on any pool worker, rethrown on the calling
// thread after the join — a throwing evaluator or stage must reach
// the caller (as the barrier pipeline's calling-thread stages always
// did), never std::terminate a bare worker thread.
class FirstError {
 public:
  void capture() noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    if (err_ == nullptr) err_ = std::current_exception();
    failed_.store(true, std::memory_order_release);
  }
  bool failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }
  void rethrow_if_any() {
    if (err_ != nullptr) std::rethrow_exception(err_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr err_;
  std::atomic<bool> failed_{false};
};

// Runs body(t) for every t in [0, tasks) on min(config threads, tasks)
// workers claiming tasks in order (inline on the calling thread when
// that is one), then rethrows the first exception any task raised. A
// failed task stops the other workers at their next claim.
template <class Body>
void run_pool(const ClusterConfig& config, std::size_t tasks, Body&& body) {
  unsigned threads = config.num_threads != 0
                         ? config.num_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, tasks));
  std::atomic<std::size_t> next{0};
  FirstError errors;
  auto worker = [&]() {
    // Each pool thread binds its own arena (the thread-local
    // process_local() when no service worker arena is bound), so the
    // chunks' scratch never contends across threads.
    ArenaScope arena_scope(stage_arena(config.use_arena));
    try {
      while (!errors.failed()) {
        const std::size_t t = next.fetch_add(1);
        if (t >= tasks) break;
        body(t);
      }
    } catch (...) {
      errors.capture();
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  errors.rethrow_if_any();
}

}  // namespace

ProofSession::ProofSession(const CamelotProblem& problem, ClusterConfig config,
                           std::shared_ptr<FieldCache> cache,
                           std::shared_ptr<const PrimePlan> plan,
                           std::shared_ptr<CodeCache> codes,
                           std::shared_ptr<obs::Registry> metrics)
    : problem_(problem),
      config_(config),
      spec_(problem.spec()),
      cache_(cache != nullptr ? std::move(cache) : FieldCache::global()),
      codes_(codes != nullptr ? std::move(codes) : CodeCache::global()),
      metrics_(metrics != nullptr ? std::move(metrics)
                                  : obs::Registry::global()) {
  stage_prepare_ = &metrics_->histogram("camelot_stage_prepare_seconds");
  stage_transport_ = &metrics_->histogram("camelot_stage_transport_seconds");
  stage_decode_ = &metrics_->histogram("camelot_stage_decode_seconds");
  stage_verify_ = &metrics_->histogram("camelot_stage_verify_seconds");
  stage_recover_ = &metrics_->histogram("camelot_stage_recover_seconds");
  if (config_.num_nodes == 0) {
    throw std::invalid_argument("ProofSession: need at least one node");
  }
  if (config_.redundancy < 1.0) {
    throw std::invalid_argument("ProofSession: redundancy must be >= 1");
  }
  plan_ = plan != nullptr
              ? std::move(plan)
              : std::make_shared<const PrimePlan>(plan_primes(
                    spec_, config_.redundancy, config_.num_primes));

  const std::size_t e = plan_->code_length;
  owners_.resize(e);
  for (std::size_t i = 0; i < e; ++i) {
    owners_[i] = symbol_owner(i, e, config_.num_nodes);
  }
  node_stats_.resize(config_.num_nodes);
  for (std::size_t j = 0; j < config_.num_nodes; ++j) {
    node_stats_[j].node_id = j;
  }

  primes_.reserve(plan_->primes.size());
  for (u64 q : plan_->primes) {
    // Twiddle capacity: tree products peak at ~2e output coefficients.
    primes_.emplace_back(q, cache_->ops(q, 2 * e, config_.backend));
  }
}

ProofSession::PrimeState& ProofSession::state_at(std::size_t prime_index) {
  if (prime_index >= primes_.size()) {
    throw std::out_of_range("ProofSession: prime index out of range");
  }
  return primes_[prime_index];
}

const ProofSession::PrimeState& ProofSession::state_at(
    std::size_t prime_index) const {
  if (prime_index >= primes_.size()) {
    throw std::out_of_range("ProofSession: prime index out of range");
  }
  return primes_[prime_index];
}

const ProofSession::PrimeState& ProofSession::state_at_least(
    std::size_t prime_index, SessionStage min_stage, const char* what) const {
  const PrimeState& st = state_at(prime_index);
  if (st.stage < min_stage) {
    throw std::logic_error(std::string("ProofSession::") + what +
                           ": prime has not reached the required stage");
  }
  return st;
}

void ProofSession::invalidate_downstream(PrimeState& st,
                                         SessionStage new_stage) {
  st.stage = new_stage;
  if (new_stage < SessionStage::kDecoded) {
    st.decoded = GaoResult{};
    st.report.decode_status = DecodeStatus::kDecodeFailure;
    st.report.corrected_symbols.clear();
    st.report.implicated_nodes.clear();
    st.report.decode_quotient_steps = 0;
    st.report.decode_hgcd_calls = 0;
  }
  if (new_stage < SessionStage::kTransported) {
    st.report.repair_rounds = 0;
    st.report.repaired_symbols = 0;
  }
  if (new_stage < SessionStage::kVerified) st.report.verified = false;
  if (new_stage < SessionStage::kRecovered) st.report.answer_residues.clear();
}

void ProofSession::restart_prime(PrimeState& st) {
  // codes_ is never null (CodeCache::global() is the fallback), so
  // every session shares the inverse-enriched trees.
  if (st.code == nullptr) {
    st.code = codes_->code(st.ops, spec_.degree_bound, plan_->code_length);
  }
  st.sent.assign(plan_->code_length, 0);
  st.received.clear();
  invalidate_downstream(st, SessionStage::kCreated);
}

StreamSpec ProofSession::stream_spec(const PrimeState& st) const {
  StreamSpec spec;
  spec.prime = st.prime;
  spec.code_length = plan_->code_length;
  spec.owners = owners_;
  spec.points = st.code->points();
  spec.field = &st.ops.prime();
  spec.stream_seed =
      derive_stream(config_.seed, st.prime, PipelineStage::kTransport);
  return spec;
}

SymbolChunk ProofSession::sent_chunk(const PrimeState& st, std::size_t node,
                                     std::size_t lo, std::size_t hi) const {
  SymbolChunk chunk;
  chunk.offset = lo;
  chunk.node = node;
  chunk.symbols.assign(st.sent.begin() + static_cast<long>(lo),
                       st.sent.begin() + static_cast<long>(hi));
  return chunk;
}

std::pair<std::size_t, std::size_t> ProofSession::node_chunk(
    std::size_t node) const {
  const std::size_t e = plan_->code_length;
  const std::size_t k = config_.num_nodes;
  const std::size_t lo = (node * e + k - 1) / k;
  const std::size_t hi = std::min(e, ((node + 1) * e + k - 1) / k);
  return {lo, hi};
}

std::size_t ProofSession::message_prefix() const {
  const std::size_t e = plan_->code_length;
  const std::size_t m = spec_.degree_bound + 1;
  // m == e (rate-1) makes the extension a no-op, so treat it as the
  // plain path; m < e is guaranteed otherwise (d+1 <= e at plan time).
  return (config_.systematic_encode && m < e) ? m : e;
}

std::size_t ProofSession::message_node_count() const {
  const std::size_t m = message_prefix();
  std::size_t count = 0;
  for (std::size_t j = 0; j < config_.num_nodes; ++j) {
    const auto [lo, hi] = node_chunk(j);
    if (lo < hi && lo < m) ++count;
  }
  return count;  // >= 1: node 0 always owns symbol 0 < m
}

void ProofSession::evaluate_node_range(PrimeState& st, std::size_t node,
                                       std::size_t lo, std::size_t hi) {
  // First declaration on purpose: every scratch vector the evaluator
  // allocates below must destruct before the scope unbinds the arena.
  ArenaScope arena_scope(stage_arena(config_.use_arena));
  const auto t0 = std::chrono::steady_clock::now();
  // Span granularity: one prepare observation per node chunk — the
  // staged prepare and the chunk driver both evaluate through here.
  obs::StageSpan span(stage_prepare_, obs::kTraceSched, "prepare", st.prime);
  auto evaluator = problem_.make_evaluator(st.ops);
  // One batched call for the whole range so the evaluator can
  // amortize its point-independent work.
  const std::span<const u64> chunk(st.code->points().data() + lo, hi - lo);
  std::vector<u64> values = evaluator->evaluate_points(chunk);
  std::copy(values.begin(), values.end(),
            st.sent.begin() + static_cast<long>(lo));
  const double secs = seconds_since(t0);
  std::lock_guard<std::mutex> lock(stats_mu_);
  node_stats_[node].symbols_computed += hi - lo;
  node_stats_[node].seconds += secs;
}

bool ProofSession::evaluate_message_chunk(PrimeState& st, std::size_t node) {
  const auto [lo, hi] = node_chunk(node);
  const std::size_t mhi = std::min(hi, message_prefix());
  if (mhi <= lo) return false;
  evaluate_node_range(st, node, lo, mhi);
  return true;
}

void ProofSession::extend_parity(PrimeState& st) {
  const std::size_t m = message_prefix();
  const std::size_t e = plan_->code_length;
  if (m >= e) return;
  // The honest message symbols are evaluations of the proof
  // polynomial P (degree <= d), so the unique degree-<=d interpolant
  // through them IS P and the extension reproduces exactly the
  // symbols the parity nodes would have evaluated.
  std::vector<u64> full = st.code->encode_systematic(
      std::span<const u64>(st.sent.data(), m));
  std::copy(full.begin() + static_cast<long>(m), full.end(),
            st.sent.begin() + static_cast<long>(m));
}

// ---- Stage bodies (shared by the staged API and the chunk driver) --------

void ProofSession::apply_decode(PrimeState& st, GaoResult decoded) {
  st.decoded = std::move(decoded);
  st.report.decode_status = st.decoded.status;
  st.report.corrected_symbols.clear();
  st.report.implicated_nodes.clear();
  st.report.decode_quotient_steps = st.decoded.quotient_steps;
  st.report.decode_hgcd_calls = st.decoded.hgcd_calls;
  if (st.decoded.status == DecodeStatus::kOk) {
    st.report.corrected_symbols = st.decoded.error_locations;
    std::set<std::size_t> nodes;
    for (std::size_t loc : st.decoded.error_locations) {
      nodes.insert(owners_[loc]);
    }
    st.report.implicated_nodes = {nodes.begin(), nodes.end()};
  }
  invalidate_downstream(st, SessionStage::kDecoded);
}

void ProofSession::apply_verify(PrimeState& st) {
  obs::StageSpan span(stage_verify_, obs::kTraceSched, "verify", st.prime);
  st.report.verified = false;
  if (st.decoded.status == DecodeStatus::kOk) {
    VerifyResult vr = verify_proof(
        problem_, st.decoded.message, st.ops, config_.verification_trials,
        derive_stream(config_.seed, st.prime, PipelineStage::kVerify));
    st.report.verified = vr.accepted;
  }
  st.stage = SessionStage::kVerified;
  st.report.answer_residues.clear();
}

void ProofSession::apply_recover(PrimeState& st) {
  obs::StageSpan span(stage_recover_, obs::kTraceSched, "recover", st.prime);
  st.report.answer_residues.clear();
  if (st.report.verified) {
    st.report.answer_residues = problem_.recover(ProofValues(
        st.decoded.message, st.decoded.corrected, st.ops.prime()));
    if (st.report.answer_residues.size() != spec_.answer_count) {
      throw std::logic_error("CamelotProblem::recover: answer count");
    }
  }
  st.stage = SessionStage::kRecovered;
}

// ---- Step 1: proof preparation, in distributed encoded form -------------

void ProofSession::prepare_prime(std::size_t prime_index) {
  ArenaScope arena_scope(stage_arena(config_.use_arena));
  WallTimer wt(&wall_seconds_);
  PrimeState& st = state_at(prime_index);
  restart_prime(st);
  run_pool(config_, config_.num_nodes,
           [&](std::size_t j) { evaluate_message_chunk(st, j); });
  extend_parity(st);
  invalidate_downstream(st, SessionStage::kPrepared);
}

// ---- Broadcast over the (possibly adversarial) channel ------------------

void ProofSession::transport_prime(std::size_t prime_index,
                                   const StreamingSymbolChannel& channel) {
  WallTimer wt(&wall_seconds_);
  state_at_least(prime_index, SessionStage::kPrepared, "transport_prime");
  PrimeState& st = state_at(prime_index);
  obs::StageSpan span(stage_transport_, obs::kTraceSched, "transport",
                      st.prime);
  std::unique_ptr<SymbolStream> stream = channel.open(stream_spec(st));
  for (std::size_t j = 0; j < config_.num_nodes; ++j) {
    const auto [lo, hi] = node_chunk(j);
    stream->push(sent_chunk(st, j, lo, hi));
  }
  stream->close();
  std::vector<u64> received(st.sent.size());
  std::size_t delivered = 0;
  while (!stream->exhausted()) {
    if (auto c = stream->poll()) {
      std::copy(c->symbols.begin(), c->symbols.end(),
                received.begin() + static_cast<long>(c->offset));
      delivered += c->symbols.size();
    }
  }
  if (delivered != received.size()) {
    throw std::logic_error(
        "ProofSession::transport_prime: the channel delivered short and the "
        "staged transport has no repair");
  }
  st.received = std::move(received);
  invalidate_downstream(st, SessionStage::kTransported);
}

// ---- Step 2: error-correction during preparation of the proof -----------

void ProofSession::decode_prime(std::size_t prime_index) {
  ArenaScope arena_scope(stage_arena(config_.use_arena));
  WallTimer wt(&wall_seconds_);
  state_at_least(prime_index, SessionStage::kTransported, "decode_prime");
  PrimeState& st = state_at(prime_index);
  GaoResult decoded;
  {
    obs::StageSpan span(stage_decode_, obs::kTraceSched, "decode", st.prime);
    decoded = gao_decode(*st.code, st.received);
  }
  apply_decode(st, std::move(decoded));
}

// ---- Step 3: checking the putative proof for correctness ----------------

void ProofSession::verify_prime(std::size_t prime_index) {
  WallTimer wt(&wall_seconds_);
  state_at_least(prime_index, SessionStage::kDecoded, "verify_prime");
  apply_verify(state_at(prime_index));
}

// ---- Residue extraction --------------------------------------------------

void ProofSession::recover_prime(std::size_t prime_index) {
  WallTimer wt(&wall_seconds_);
  state_at_least(prime_index, SessionStage::kVerified, "recover_prime");
  apply_recover(state_at(prime_index));
}

void ProofSession::reset_prime(std::size_t prime_index) {
  PrimeState& st = state_at(prime_index);
  st.sent.clear();
  st.received.clear();
  invalidate_downstream(st, SessionStage::kCreated);
}

// ---- Whole-session stages ------------------------------------------------

ProofSession& ProofSession::prepare() {
  for (std::size_t pi = 0; pi < primes_.size(); ++pi) {
    if (primes_[pi].stage == SessionStage::kCreated) prepare_prime(pi);
  }
  return *this;
}

ProofSession& ProofSession::transport(const StreamingSymbolChannel& channel) {
  for (std::size_t pi = 0; pi < primes_.size(); ++pi) {
    if (primes_[pi].stage == SessionStage::kPrepared) {
      transport_prime(pi, channel);
    }
  }
  return *this;
}

ProofSession& ProofSession::transport(const ByzantineAdversary* adversary) {
  if (adversary != nullptr) {
    return transport(AdversarialStreamingChannel(*adversary));
  }
  return transport(LosslessStreamingChannel());
}

ProofSession& ProofSession::decode() {
  for (std::size_t pi = 0; pi < primes_.size(); ++pi) {
    if (primes_[pi].stage == SessionStage::kTransported) decode_prime(pi);
  }
  return *this;
}

ProofSession& ProofSession::verify() {
  for (std::size_t pi = 0; pi < primes_.size(); ++pi) {
    if (primes_[pi].stage == SessionStage::kDecoded) verify_prime(pi);
  }
  return *this;
}

ProofSession& ProofSession::recover() {
  for (std::size_t pi = 0; pi < primes_.size(); ++pi) {
    if (primes_[pi].stage == SessionStage::kVerified) recover_prime(pi);
  }
  return *this;
}

void ProofSession::reset_for_run() {
  for (std::size_t pi = 0; pi < primes_.size(); ++pi) reset_prime(pi);
  for (NodeStats& ns : node_stats_) {
    ns.symbols_computed = 0;
    ns.seconds = 0.0;
  }
  wall_seconds_.store(0.0, std::memory_order_relaxed);
}

RunReport ProofSession::run(const ByzantineAdversary* adversary) {
  if (adversary != nullptr) {
    return run_streaming(AdversarialStreamingChannel(*adversary));
  }
  return run_streaming(LosslessStreamingChannel());
}

RunReport ProofSession::run_barrier(const ByzantineAdversary* adversary) {
  reset_for_run();
  prepare();
  transport(adversary);
  decode();
  verify();
  recover();
  return report();
}

// ---- The chunk driver ----------------------------------------------------

void ProofSession::drain_stream(PrimeState& st, SymbolStream& stream,
                                StreamingGaoDecoder& decoder,
                                const SessionCancelFn& cancel,
                                bool until_exhausted, const char* what) {
  // A rate-limited stream releases a bounded number of symbols per
  // poll and can hold a prime here for a long time, so the deadline
  // is checked between absorbs.
  while (true) {
    if (cancel && cancel()) throw SessionCancelled();
    if (std::optional<SymbolChunk> c = stream.poll()) {
      obs::StageSpan span(stage_transport_, obs::kTraceSched, what, st.prime);
      decoder.absorb(c->offset, c->symbols);
    } else if (!until_exhausted || stream.exhausted()) {
      return;
    }
  }
}

bool ProofSession::repair_stream(PrimeState& st, SymbolStream& stream,
                                 StreamingGaoDecoder& decoder,
                                 const SessionCancelFn& cancel) {
  const std::size_t m = message_prefix();
  for (std::size_t round = 1; !decoder.ready(); ++round) {
    if (round > config_.repair_budget) return false;
    if (!stream.reopen_for_repair(round)) {
      // A transport that refuses round 1 cannot lose symbols by
      // contract — the shortfall is a bug, not weather. A transport
      // that accepted earlier rounds but refuses now is out of repair
      // capacity; treat it like a spent budget.
      if (round == 1) {
        throw std::logic_error(
            "StreamingSymbolChannel: stream exhausted without delivering "
            "every symbol");
      }
      return false;
    }
    st.report.repair_rounds = round;
    // Missing runs, split at node boundaries: the owner of each piece
    // re-prepares it. Message positions go back through the owner's
    // evaluator (an evaluator-prefix call under systematic encoding —
    // identical values, so repaired runs stay bit-identical); the
    // parity tail re-ships from the systematic extension still in
    // st.sent.
    for (const auto& [rlo, rhi] : decoder.missing_runs()) {
      std::size_t pos = rlo;
      while (pos < rhi) {
        if (cancel && cancel()) throw SessionCancelled();
        const std::size_t node = owners_[pos];
        const std::size_t end = std::min(rhi, node_chunk(node).second);
        const std::size_t mend = std::min(end, m);
        if (pos < mend) evaluate_node_range(st, node, pos, mend);
        stream.push(sent_chunk(st, node, pos, end));
        st.report.repaired_symbols += end - pos;
        pos = end;
      }
    }
    stream.close();
    drain_stream(st, stream, decoder, cancel, /*until_exhausted=*/true,
                 "repair");
  }
  return true;
}

void ProofSession::settle_prime(PrimeState& st,
                                const StreamingGaoDecoder& decoder,
                                bool delivered) {
  ArenaScope arena_scope(stage_arena(config_.use_arena));
  st.stage = SessionStage::kTransported;
  if (delivered) {
    st.received.assign(decoder.received().begin(), decoder.received().end());
    GaoResult decoded;
    {
      obs::StageSpan span(stage_decode_, obs::kTraceSched, "decode", st.prime);
      decoded = decoder.finish();
    }
    apply_decode(st, std::move(decoded));
  } else {
    // The received word stays empty — there is no complete word to
    // expose — but the prime still runs to kRecovered so report() sees
    // a settled (failed) prime, exactly like a beyond-radius decode.
    apply_decode(st, GaoResult{});
  }
  apply_verify(st);
  apply_recover(st);
}

void ProofSession::drive(std::span<const std::size_t> prime_indices,
                         const StreamingSymbolChannel& channel,
                         const SessionCancelFn& cancel) {
  // Outermost declaration: the flights below hold decoders whose
  // received-word buffers live in this scope's arena, and they must
  // destruct before the binding is restored.
  ArenaScope arena_scope(stage_arena(config_.use_arena));
  WallTimer wt(&wall_seconds_);
  const std::size_t k = config_.num_nodes;
  const std::size_t m = message_prefix();
  const std::size_t msg_nodes = message_node_count();
  const bool deferred = m < plan_->code_length;

  // Per-prime in-flight broadcast state.
  struct Flight {
    PrimeState* st = nullptr;
    std::unique_ptr<SymbolStream> stream;
    std::unique_ptr<StreamingGaoDecoder> decoder;
    std::mutex mu;  // serializes poll/absorb
    std::atomic<std::size_t> nodes_done{0};
    std::atomic<std::size_t> msg_done{0};
  };
  std::vector<Flight> flights(prime_indices.size());
  for (std::size_t f = 0; f < flights.size(); ++f) {
    Flight& fl = flights[f];
    fl.st = &state_at(prime_indices[f]);
    restart_prime(*fl.st);
    fl.stream = channel.open(stream_spec(*fl.st));
    fl.decoder = std::make_unique<StreamingGaoDecoder>(*fl.st->code);
  }

  // Ships node j's chunk (final in st.sent) and absorbs whatever became
  // deliverable. The k-th push closes the stream, and the worker that
  // made it drains the tail, repairs a shortfall and settles the prime
  // — possibly while other primes are still preparing. That overlap is
  // the whole point. Settling runs outside the flight lock: the stream
  // is exhausted by then, so late absorbers find nothing to poll.
  auto push_chunk = [&](Flight& fl, std::size_t j) {
    if (cancel && cancel()) throw SessionCancelled();
    const auto [lo, hi] = node_chunk(j);
    fl.stream->push(sent_chunk(*fl.st, j, lo, hi));
    const bool last = fl.nodes_done.fetch_add(1) + 1 == k;
    if (last) fl.stream->close();
    bool delivered = false;
    {
      std::lock_guard<std::mutex> lock(fl.mu);
      drain_stream(*fl.st, *fl.stream, *fl.decoder, cancel,
                   /*until_exhausted=*/last, "absorb");
      if (!last) return;
      // Lossy transport: the drained stream left the decoder short,
      // and selective repair re-pushes only the missing chunks.
      delivered = repair_stream(*fl.st, *fl.stream, *fl.decoder, cancel);
    }
    settle_prime(*fl.st, *fl.decoder, delivered);
  };
  try {
    // Task t = (prime t/k, node t%k), claimed prime-major so early
    // primes' streams fill (and decode) while later primes prepare.
    run_pool(config_, flights.size() * k, [&](std::size_t t) {
      if (cancel && cancel()) throw SessionCancelled();
      Flight& fl = flights[t / k];
      const std::size_t j = t % k;
      const bool evaluated = evaluate_message_chunk(*fl.st, j);
      // Chunks ending inside the message prefix are final now; parity-
      // bearing chunks wait for this prime's systematic extension.
      if (node_chunk(j).second <= m) push_chunk(fl, j);
      if (evaluated && deferred && fl.msg_done.fetch_add(1) + 1 == msg_nodes) {
        // Last message sub-chunk of this prime landed (the msg_done
        // RMW chain orders every st.sent[0, m) write before this):
        // extend to the parity tail and release the deferred chunks.
        extend_parity(*fl.st);
        for (std::size_t jd = 0; jd < k; ++jd) {
          if (node_chunk(jd).second > m) push_chunk(fl, jd);
        }
      }
    });
  } catch (const SessionCancelled&) {
    for (std::size_t pi : prime_indices) reset_prime(pi);
    throw;
  }
}

void ProofSession::run_prime_streaming(std::size_t prime_index,
                                       const StreamingSymbolChannel& channel,
                                       const SessionCancelFn& cancel) {
  drive(std::span<const std::size_t>(&prime_index, 1), channel, cancel);
}

RunReport ProofSession::run_streaming(const StreamingSymbolChannel& channel) {
  reset_for_run();
  std::vector<std::size_t> all(primes_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  drive(all, channel, nullptr);
  return report();
}

// ---- Inspection ----------------------------------------------------------

u64 ProofSession::prime(std::size_t prime_index) const {
  return state_at(prime_index).prime;
}

SessionStage ProofSession::stage(std::size_t prime_index) const {
  return state_at(prime_index).stage;
}

const std::vector<u64>& ProofSession::sent(std::size_t prime_index) const {
  return state_at_least(prime_index, SessionStage::kPrepared, "sent").sent;
}

const std::vector<u64>& ProofSession::received(
    std::size_t prime_index) const {
  return state_at_least(prime_index, SessionStage::kTransported, "received")
      .received;
}

const PrimeRunReport& ProofSession::prime_report(
    std::size_t prime_index) const {
  return state_at(prime_index).report;
}

std::vector<std::size_t> ProofSession::implicated_nodes() const {
  return report().implicated_nodes();
}

bool ProofSession::complete() const { return report().success; }

RunReport ProofSession::report() const {
  std::vector<PrimeRunReport> per_prime;
  per_prime.reserve(primes_.size());
  for (const PrimeState& st : primes_) per_prime.push_back(st.report);
  return assemble_report(spec_, *plan_, std::move(per_prime), node_stats_,
                         wall_seconds_.load(std::memory_order_relaxed));
}

// ---- Reconstruction over the integers (CRT across primes) ---------------

RunReport assemble_report(const ProofSpec& spec, const PrimePlan& plan,
                          std::vector<PrimeRunReport> per_prime,
                          std::vector<NodeStats> node_stats,
                          double wall_seconds) {
  RunReport out;
  out.proof_symbols = spec.degree_bound + 1;
  out.code_length = plan.code_length;
  out.num_primes = plan.primes.size();
  out.node_stats = std::move(node_stats);
  out.wall_seconds = wall_seconds;
  out.per_prime = std::move(per_prime);
  // The one completeness rule.
  out.success = !out.per_prime.empty();
  for (const PrimeRunReport& pr : out.per_prime) {
    if (pr.decode_status != DecodeStatus::kOk || !pr.verified ||
        pr.answer_residues.size() != spec.answer_count) {
      out.success = false;
    }
  }
  if (!out.success) return out;
  out.answers.reserve(spec.answer_count);
  std::vector<u64> residues(out.per_prime.size());
  for (std::size_t a = 0; a < spec.answer_count; ++a) {
    for (std::size_t pi = 0; pi < out.per_prime.size(); ++pi) {
      residues[pi] = out.per_prime[pi].answer_residues[a];
    }
    out.answers.push_back(spec.answers_signed
                              ? crt_reconstruct_signed(residues, plan.primes)
                              : crt_reconstruct(residues, plan.primes));
  }
  return out;
}

std::vector<std::size_t> RunReport::implicated_nodes() const {
  std::set<std::size_t> nodes;
  for (const PrimeRunReport& pr : per_prime) {
    nodes.insert(pr.implicated_nodes.begin(), pr.implicated_nodes.end());
  }
  return {nodes.begin(), nodes.end()};
}

}  // namespace camelot
