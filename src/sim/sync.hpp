#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace gnnerator::sim {

/// Identifier of a producer/consumer synchronisation token.
using TokenId = std::uint32_t;

/// Sentinel meaning "no dependency".
inline constexpr TokenId kNoToken = std::numeric_limits<TokenId>::max();

/// One-shot token scoreboard: the GNNerator Controller (paper §III-C),
/// which lets *either* engine be the producer. The producer signals a token
/// when a unit of data (a feature block of a destination column, a z block
/// of a source interval, a finished layer) becomes visible to the consumer,
/// and the consumer's in-order front stalls until its wait token is
/// signalled:
///
///   Dense first — the Graph Engine's shard fetch stalls until the Dense
///   Engine has produced the source-interval z block for that shard.
///   Graph first — the Dense Engine's operand fetch stalls until the Graph
///   Engine has finished aggregating the destination column for the block.
///
/// Tokens are single-assignment — signalling twice is a model bug and
/// throws.
class SyncBoard {
 public:
  /// Registers a token; `debug_name` shows up in deadlock diagnostics.
  TokenId create(std::string debug_name);

  void signal(TokenId token);

  /// kNoToken is always satisfied.
  [[nodiscard]] bool is_signaled(TokenId token) const;

  [[nodiscard]] std::size_t size() const { return signaled_.size(); }
  [[nodiscard]] std::size_t num_signaled() const { return num_signaled_; }

  /// Names of all unsignalled tokens (deadlock diagnostics).
  [[nodiscard]] std::vector<std::string> pending_names() const;

 private:
  std::vector<bool> signaled_;
  std::vector<std::string> names_;
  std::size_t num_signaled_ = 0;
};

}  // namespace gnnerator::sim
