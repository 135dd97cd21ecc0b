#pragma once

#include <cstdint>
#include <string>

#include "sim/sync.hpp"

namespace gnnerator::core {

/// The GNNerator Controller (paper §III-C): coordinates the Dense and Graph
/// Engines so that *either* can be the producer. Mechanically it is a token
/// scoreboard — the producer engine signals a token when a unit of data
/// (a feature block of a destination column, a z block of a source
/// interval, a finished layer) becomes visible to the consumer, and the
/// consumer's in-order front stalls until its wait token is signalled:
///
///   Dense first — the Graph Engine's shard fetch stalls until the Dense
///   Engine has produced the source-interval z block for that shard.
///   Graph first — the Dense Engine's operand fetch stalls until the Graph
///   Engine has finished aggregating the destination column for the block.
class GnneratorController {
 public:
  [[nodiscard]] sim::SyncBoard& board() { return board_; }
  [[nodiscard]] const sim::SyncBoard& board() const { return board_; }

  /// Diagnostic string listing unsignalled tokens.
  [[nodiscard]] std::string pending_summary(std::size_t max_items = 8) const;

 private:
  sim::SyncBoard board_;
};

}  // namespace gnnerator::core
