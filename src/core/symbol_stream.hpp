// Streaming symbol transport: the one chunk-granular broadcast
// abstraction of the pipeline.
//
// The §1.3 pipeline is overlappable — a prime's symbols can be decoded
// as soon as its nodes finish preparing them — so nothing waits on a
// whole-stage barrier. A StreamingSymbolChannel opens one SymbolStream
// per prime; producers push() each node's chunk the moment it is
// computed, and the consumer poll()s whatever is deliverable *now*,
// feeding a StreamingGaoDecoder incrementally. ProofSession's chunk
// driver and the ProofService scheduler overlap prepare, transport and
// decode across primes on top of this interface; the staged
// ProofSession::transport_prime pushes every chunk, closes the stream
// and drains it in one go.
//
// Determinism contract: what a stream ultimately delivers must be a
// pure function of the honest chunks and the StreamSpec (stream_seed
// carries the per-(seed, prime, stage) randomness) — delivery *order*
// and chunk *boundaries* may vary with scheduling, but the final
// received word may not. All implementations here honour that, which
// is why overlapped runs are bit-identical to staged (barrier) runs.
//
// Threading contract: push(), close(), poll() and exhausted() may be
// called concurrently from any thread. After close(), repeated poll()
// calls must eventually drain every deliverable symbol (a rate-limited
// stream releases a bounded number per call, but never withholds
// forever).
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/byzantine.hpp"
#include "field/field.hpp"

namespace camelot {

// A contiguous run of codeword symbols produced by one node.
struct SymbolChunk {
  std::size_t offset = 0;  // index of the first symbol in the codeword
  std::size_t node = 0;    // producing node (diagnostic)
  std::vector<u64> symbols;
};

// Static metadata of one prime's broadcast, fixed before any symbol
// exists. Spans/pointers are non-owning and must outlive the stream
// (ProofSession owns them for the duration of the run).
struct StreamSpec {
  u64 prime = 0;
  std::size_t code_length = 0;
  std::span<const std::size_t> owners;  // symbol index -> owning node
  std::span<const u64> points;          // evaluation points
  const PrimeField* field = nullptr;
  u64 stream_seed = 0;  // derive_stream(seed, prime, kTransport)
};

// One prime's in-flight broadcast.
class SymbolStream {
 public:
  virtual ~SymbolStream() = default;

  // Producer side: a node finished its chunk. Throws std::logic_error
  // on out-of-range chunks or pushes after close().
  virtual void push(SymbolChunk chunk) = 0;
  // Producer side: every chunk has been pushed.
  virtual void close() = 0;

  // Consumer side: next deliverable chunk, or nullopt when nothing is
  // ready right now (more may become deliverable after further pushes
  // or, for rate-limited streams, after further polls).
  virtual std::optional<SymbolChunk> poll() = 0;
  // True once the stream is closed and every deliverable symbol has
  // been polled.
  virtual bool exhausted() = 0;

  // Repair support: re-arm a closed stream for repair round `round`
  // (1-based) so selective re-prepare can re-push chunks the transport
  // lost. Returns false when the transport accepts no repair traffic
  // (the default — a transport that never loses symbols has nothing to
  // repair). An erasure stream re-seeds its loss schedule per round, so
  // a retransmitted chunk is not deterministically re-dropped; a
  // corrupting inner stream keeps its positional plan, so a repaired
  // symbol carries exactly the value the first delivery would have.
  virtual bool reopen_for_repair(std::size_t round) {
    (void)round;
    return false;
  }
};

// Factory for per-prime streams.
class StreamingSymbolChannel {
 public:
  virtual ~StreamingSymbolChannel() = default;
  virtual std::unique_ptr<SymbolStream> open(const StreamSpec& spec) const = 0;
};

// Faithful streaming broadcast: chunks are delivered as pushed.
class LosslessStreamingChannel final : public StreamingSymbolChannel {
 public:
  std::unique_ptr<SymbolStream> open(const StreamSpec& spec) const override;
};

// Streaming broadcast through Morgana: chunks owned by corrupt nodes
// are rewritten in flight. The corruption schedule is fixed per
// stream from (owners, points, stream_seed) before the first chunk
// arrives — see ByzantineAdversary::make_plan — so the received word
// is bit-identical to a whole-word ByzantineAdversary::corrupt no
// matter the arrival order. Non-owning: the adversary must outlive the channel.
class AdversarialStreamingChannel final : public StreamingSymbolChannel {
 public:
  explicit AdversarialStreamingChannel(const ByzantineAdversary& adversary)
      : adversary_(adversary) {}

  std::unique_ptr<SymbolStream> open(const StreamSpec& spec) const override;

 private:
  const ByzantineAdversary& adversary_;
};

// Bandwidth-bounded broadcast in the congested-clique spirit: at most
// `symbols_per_poll` symbols are released per poll() call, regardless
// of how much is buffered; oversized chunks are split across polls.
// Wraps an inner channel (lossless when nullptr) for the symbol
// values, so rate limiting composes with corruption. Non-owning.
class RateLimitedStreamingChannel final : public StreamingSymbolChannel {
 public:
  explicit RateLimitedStreamingChannel(
      std::size_t symbols_per_poll,
      const StreamingSymbolChannel* inner = nullptr);

  std::unique_ptr<SymbolStream> open(const StreamSpec& spec) const override;

 private:
  std::size_t symbols_per_poll_;
  const StreamingSymbolChannel* inner_;
};

}  // namespace camelot
