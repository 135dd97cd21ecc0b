#include "mem/dram.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/units.hpp"

namespace gnnerator::mem {

namespace {

constexpr std::string_view kStatPrefix = "dram.";
/// Indexed by DramModel::Stat.
constexpr std::string_view kStatNames[] = {"read_bytes", "write_bytes", "transfers",
                                           "busy_cycles", "granted_bytes"};

/// Decomposes bytes_per_cycle / transaction_bytes into an irreducible
/// fraction of transactions per cycle. Every double is a dyadic rational
/// (mantissa x 2^exponent), so the decomposition is exact — no epsilon, no
/// drift. Rejects (via CheckError) bandwidths whose exact representation
/// needs more than 64 bits per side; every physically sensible config is
/// far below that.
std::pair<std::uint64_t, std::uint64_t> rational_rate(double bytes_per_cycle,
                                                      std::uint64_t transaction_bytes) {
  GNNERATOR_CHECK(bytes_per_cycle > 0.0 && std::isfinite(bytes_per_cycle));
  int exp2 = 0;
  const double mant = std::frexp(bytes_per_cycle, &exp2);  // in [0.5, 1)
  auto num = static_cast<std::uint64_t>(std::ldexp(mant, 53));  // mant * 2^53, integral
  exp2 -= 53;
  while (num % 2 == 0) {
    num /= 2;
    ++exp2;
  }
  std::uint64_t den = transaction_bytes;
  // Apply the power of two to whichever side keeps integers.
  while (exp2 > 0) {
    GNNERATOR_CHECK_MSG(num <= (std::uint64_t{1} << 62), "bytes_per_cycle too large");
    num *= 2;
    --exp2;
  }
  while (exp2 < 0) {
    GNNERATOR_CHECK_MSG(den <= (std::uint64_t{1} << 62),
                        "bytes_per_cycle needs more precision than the credit model carries");
    den *= 2;
    ++exp2;
  }
  const std::uint64_t g = std::gcd(num, den);
  return {num / g, den / g};
}

/// ceil(a / b) for 128-bit intermediates: the n-th transaction over a p/q
/// rate can put n*q near 2^90 for long runs at fine-grained rates.
std::uint64_t ceil_div_u128(unsigned __int128 a, std::uint64_t b) {
  const unsigned __int128 k = (a + b - 1) / b;
  GNNERATOR_CHECK_MSG(k <= ~std::uint64_t{0}, "grant horizon overflows 64-bit cycles");
  return static_cast<std::uint64_t>(k);
}

}  // namespace

DramModel::DramModel(Config config, std::string name)
    : sim::Component(std::move(name)), config_(config) {
  GNNERATOR_CHECK(config_.bytes_per_cycle > 0.0);
  GNNERATOR_CHECK(config_.transaction_bytes > 0);
  std::tie(rate_num_, rate_den_) =
      rational_rate(config_.bytes_per_cycle, config_.transaction_bytes);
}

DmaClient DramModel::intern_client(std::string_view name) {
  std::string stat_name(kStatPrefix);
  stat_name.append("bytes.").append(name);
  const auto it = std::find(client_stat_names_.begin(), client_stat_names_.end(), stat_name);
  if (it != client_stat_names_.end()) {
    return static_cast<DmaClient>(it - client_stat_names_.begin());
  }
  client_stat_names_.push_back(std::move(stat_name));
  client_bytes_.push_back(0);
  return static_cast<DmaClient>(client_bytes_.size() - 1);
}

DmaId DramModel::submit(MemOp op, std::uint64_t bytes, DmaClient client) {
  GNNERATOR_CHECK_MSG(client < client_bytes_.size(), "submitting for unknown DMA client "
                                                         << client);
  const DmaId id = next_id_++;
  Transfer& t = transfers_.emplace_back();  // index id - first_id_
  if (bytes == 0) {
    // Zero-byte transfers represent "operand already on-chip": complete
    // instantly and touch no DRAM state.
    t.last_byte_granted = true;
    return id;
  }
  t.remaining = util::round_up(bytes, config_.transaction_bytes);
  stats_.add(op == MemOp::kRead ? Stat::kReadBytes : Stat::kWriteBytes, t.remaining);
  client_bytes_[client] += t.remaining;
  stats_.add(Stat::kTransfers);
  active_.push_back(id);
  return id;
}

const DramModel::Transfer& DramModel::transfer(DmaId id, const char* action) const {
  GNNERATOR_CHECK_MSG(id >= first_id_ && id < next_id_ && !transfers_[id - first_id_].collected,
                      action << " unknown DMA id " << id);
  return transfers_[id - first_id_];
}

DramModel::Transfer& DramModel::transfer(DmaId id, const char* action) {
  return const_cast<Transfer&>(std::as_const(*this).transfer(id, action));
}

bool DramModel::is_complete(DmaId id) const {
  const Transfer& t = transfer(id, "polling");
  return t.last_byte_granted && last_tick_ >= t.complete_at;
}

void DramModel::collect(DmaId id) {
  GNNERATOR_CHECK_MSG(is_complete(id), "collecting incomplete DMA id " << id);
  transfer(id, "collecting").collected = true;
  while (head_ < transfers_.size() && transfers_[head_].collected) {
    ++head_;
  }
  if (2 * head_ >= transfers_.size()) {
    transfers_.erase(transfers_.begin(), transfers_.begin() + static_cast<std::ptrdiff_t>(head_));
    first_id_ += head_;
    head_ = 0;
  }
}

void DramModel::forget_landed() {
  std::erase_if(landing_, [this](sim::Cycle at) { return at <= last_tick_; });
}

std::uint64_t DramModel::finish_grant_index(DmaId id) const {
  // Round-robin from the current deque state: round t serves, in deque
  // order, every transfer with at least t transactions left. Transfer i's
  // final transaction therefore lands in round m_i, after all full earlier
  // rounds plus i's position among that round's participants.
  const std::uint64_t txn = config_.transaction_bytes;
  const std::uint64_t m_i = transfer(id, "ranking").remaining / txn;
  GNNERATOR_CHECK(m_i > 0);
  std::uint64_t full_rounds = 0;  // grants in rounds 1 .. m_i-1, all transfers
  std::uint64_t rank = 0;         // i's slot among round-m_i participants
  bool seen = false;
  for (const DmaId other : active_) {
    const std::uint64_t m_j = transfer(other, "ranking").remaining / txn;
    full_rounds += std::min(m_j, m_i - 1);
    if (!seen && m_j >= m_i) {
      ++rank;
    }
    if (other == id) {
      seen = true;
    }
  }
  GNNERATOR_CHECK(seen);
  return full_rounds + rank;
}

std::uint64_t DramModel::cycles_for_grants(std::uint64_t n) const {
  // Cumulative grantable transactions after k further cycles:
  // floor((credit_ + k * p) / q). The n-th transaction lands in the
  // smallest k with credit_ + k*p >= n*q, clamped to at least one cycle
  // (grants only happen inside ticks).
  const unsigned __int128 need = static_cast<unsigned __int128>(n) * rate_den_;
  if (need <= credit_) {
    return 1;
  }
  return std::max<std::uint64_t>(1, ceil_div_u128(need - credit_, rate_num_));
}

sim::Cycle DramModel::complete_visible_at(DmaId id) const {
  const Transfer& t = transfer(id, "predicting");
  if (t.last_byte_granted) {
    // Visible to a poller ticking at cycle c once c + 1 >= complete_at.
    return t.complete_at == 0 ? 0 : t.complete_at - 1;
  }
  // last_tick_ = now + 1 after the tick at `now`; with all demand pending,
  // the rational credit makes the grant schedule closed-form from here.
  const std::uint64_t k = cycles_for_grants(finish_grant_index(id));
  const sim::Cycle now = last_tick_ == 0 ? 0 : last_tick_ - 1;
  return now + k + config_.latency_cycles - 1;
}

void DramModel::tick(sim::Cycle now) {
  last_tick_ = now + 1;  // completions with complete_at <= now+1 are visible next cycle
  if (active_.empty()) {
    // Idle ticks only top the credit up to one cycle's budget: DRAM cannot
    // burst above its pin bandwidth.
    credit_ = rate_num_;
    forget_landed();
    return;
  }
  stats_.add(Stat::kBusyCycles);
  credit_ += rate_num_;

  // Round-robin grants in transaction units until the cycle budget is spent
  // or nothing is left to serve.
  while (credit_ >= rate_den_ && !active_.empty()) {
    const DmaId id = active_.front();
    active_.pop_front();
    Transfer& t = transfer(id, "granting");

    const std::uint64_t grant = std::min<std::uint64_t>(t.remaining, config_.transaction_bytes);
    t.remaining -= grant;
    credit_ -= rate_den_;
    stats_.add(Stat::kGrantedBytes, grant);

    if (t.remaining == 0) {
      t.last_byte_granted = true;
      t.complete_at = now + config_.latency_cycles;
      landing_.push_back(t.complete_at);
    } else {
      active_.push_back(id);
    }
  }
  if (active_.empty()) {
    // Demand exhausted mid-cycle: unused credit does not bank beyond one
    // cycle's worth.
    credit_ = std::min(credit_, rate_num_);
  }
  // While demand remains the grant loop leaves credit_ < rate_den_ (less
  // than one transaction) by construction — no cap needed.
  forget_landed();
}

sim::Cycle DramModel::next_event(sim::Cycle now) const {
  // Only transfers in flight can turn visible; visible (or instant) ones
  // are inert until collected.
  sim::Cycle event = sim::kNoEvent;
  const auto consider = [&](sim::Cycle visible) {
    event = std::min(event, std::max(visible, now + 1));
  };
  for (const DmaId id : active_) {
    consider(complete_visible_at(id));
  }
  for (const sim::Cycle complete_at : landing_) {
    consider(complete_at - 1);  // complete_visible_at of a granted transfer
  }
  return event;
}

void DramModel::skip(sim::Cycle from, sim::Cycle to) {
  GNNERATOR_CHECK(to > from);
  const sim::Cycle cycles = to - from;  // replayed ticks: cycles [from, to)
  if (active_.empty()) {
    // Idle ticks only top the credit up to one cycle's budget.
    credit_ = rate_num_;
    last_tick_ = to;
    forget_landed();
    return;
  }
  const std::uint64_t txn = config_.transaction_bytes;
  const sim::Cycle now = from - 1;  // state snapshot is "after the tick at now"

  // Remaining demand, in transactions, in round-robin order.
  demand_.clear();
  std::uint64_t total = 0;
  std::uint64_t m_max = 0;
  for (const DmaId id : active_) {
    const std::uint64_t m = transfer(id, "skipping").remaining / txn;
    demand_.push_back(Demand{id, m});
    total += m;
    m_max = std::max(m_max, m);
  }

  // Cumulative grantable transactions over the gap (closed form on the
  // rational credit), saturated by the actual demand.
  const unsigned __int128 supply_q =
      credit_ + static_cast<unsigned __int128>(cycles) * rate_num_;
  const unsigned __int128 supply128 = supply_q / rate_den_;
  const std::uint64_t supply =
      supply128 > total ? total : static_cast<std::uint64_t>(supply128);
  const std::uint64_t granted = std::min(supply, total);
  const std::uint64_t k_fin = cycles_for_grants(total);
  stats_.add(Stat::kBusyCycles, std::min<std::uint64_t>(cycles, k_fin));
  stats_.add(Stat::kGrantedBytes, granted * txn);

  // Per-transfer bookkeeping. Full rounds completed: largest t with
  // G(t) = sum_j min(m_j, t) <= granted; the residual p transactions serve
  // the first p participants of round t*+1 in deque order.
  const auto grants_through_round = [&](std::uint64_t t) {
    std::uint64_t g = 0;
    for (const Demand& d : demand_) {
      g += std::min(d.txns, t);
    }
    return g;
  };
  std::uint64_t lo = 0;
  std::uint64_t hi = m_max;
  while (lo < hi) {  // binary search for t* = max{t : G(t) <= granted}
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (grants_through_round(mid) <= granted) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const std::uint64_t full_rounds = lo;
  std::uint64_t residual = granted - grants_through_round(full_rounds);

  // Finish index of transfer i in the global grant sequence, computed from
  // the immutable demand_ snapshot (the transfer table is mutated below).
  const auto finish_index = [&](std::size_t i) {
    const std::uint64_t m_i = demand_[i].txns;
    std::uint64_t before = 0;
    std::uint64_t rank = 0;
    for (std::size_t j = 0; j < demand_.size(); ++j) {
      before += std::min(demand_[j].txns, m_i - 1);
      if (j <= i && demand_[j].txns >= m_i) {
        ++rank;
      }
    }
    return before + rank;
  };

  // Participants of the partial round that were already served rotate
  // behind the unserved ones, preserving relative order — exactly the
  // deque state the per-transaction loop leaves mid-round.
  active_.clear();
  served_.clear();
  for (std::size_t i = 0; i < demand_.size(); ++i) {
    const std::uint64_t m_i = demand_[i].txns;
    const std::uint64_t got = std::min(m_i, full_rounds) +
                              ((m_i > full_rounds && residual > 0) ? (--residual, 1) : 0);
    Transfer& t = transfer(demand_[i].id, "skipping");
    if (got == m_i) {
      // Finished granting inside the gap: completion lands latency cycles
      // after its final transaction's cycle.
      const std::uint64_t k = cycles_for_grants(finish_index(i));
      GNNERATOR_CHECK(k <= cycles);
      t.remaining = 0;
      t.last_byte_granted = true;
      t.complete_at = now + k + config_.latency_cycles;
      landing_.push_back(t.complete_at);
    } else {
      t.remaining = (m_i - got) * txn;
      if (got > full_rounds) {
        served_.push_back(demand_[i].id);
      } else {
        active_.push_back(demand_[i].id);
      }
    }
  }
  active_.insert(active_.end(), served_.begin(), served_.end());

  if (granted < total) {
    // Demand outlives the gap: leftover credit is whatever the grant loop
    // could not spend — strictly less than one transaction.
    credit_ = static_cast<std::uint64_t>(
        supply_q - static_cast<unsigned __int128>(granted) * rate_den_);
    GNNERATOR_CHECK(credit_ < rate_den_);
  } else if (cycles > k_fin) {
    credit_ = rate_num_;  // idle top-up after draining
  } else {
    // Drained exactly at the end of the gap: leftover can exceed one
    // cycle's budget when credit was banked during an idle tick before the
    // submission; the reference tick caps it.
    const unsigned __int128 drain_q =
        credit_ + static_cast<unsigned __int128>(k_fin) * rate_num_ -
        static_cast<unsigned __int128>(total) * rate_den_;
    credit_ = drain_q > rate_num_ ? rate_num_ : static_cast<std::uint64_t>(drain_q);
  }
  last_tick_ = to;
  forget_landed();
}

bool DramModel::busy() const {
  // Demand still to grant, or latency shadows: granted but not yet visible.
  return !active_.empty() || !landing_.empty();
}

void DramModel::export_stats(sim::StatSet& out) const {
  stats_.export_to(out, kStatPrefix, kStatNames);
  for (std::size_t client = 0; client < client_bytes_.size(); ++client) {
    // Only a nonzero transfer bumps a client, by at least one transaction,
    // so a zero count means the client never submitted traffic.
    if (client_bytes_[client] != 0) {
      out.add(client_stat_names_[client], client_bytes_[client]);
    }
  }
}

sim::StatSet DramModel::stats() const {
  sim::StatSet out;
  export_stats(out);
  return out;
}

}  // namespace gnnerator::mem
