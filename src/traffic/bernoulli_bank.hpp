// Struct-of-arrays home for the Bernoulli injectors' RNG streams.
//
// A radix-64 switch under Bernoulli load rolls up to 64 independent
// xoshiro256** generators every cycle — over a third of the step budget when
// done one injector at a time. The bank keeps those generators' state words
// in parallel arrays (s0/s1/s2/s3) and advances all of them in one plain
// per-slot loop per cycle, instead of one Injector call per flow.
//
// Byte-identity with the scalar path is structural, not approximate:
//   * each slot holds exactly the state the Injector's private Rng held, so
//     the draw sequence per flow is unchanged;
//   * per-flow streams are independent forks of the experiment RNG, so
//     advancing them in bank order instead of flow-loop order is invisible;
//   * within a flow the order (one trial per cycle, then any length draws)
//     is preserved because roll() happens once at the top of the creation
//     pass and draw() pulls from the same slot afterwards;
//   * a slot whose start_cycle has not been reached is not advanced and
//     reports no fire, matching packets_at()'s early return.
//
// Only strict-interior probabilities (0 < p < 1) are banked: the clamped
// cases consume no RNG in Rng::bernoulli and must keep consuming none.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace ssq::traffic {

class BernoulliBank {
 public:
  /// Registers one generator. `rng` is the flow's forked stream (its state
  /// is copied in; the caller's copy must not be used afterwards), `thr` is
  /// bernoulli_threshold(p) for a strict-interior p, `start` the flow's
  /// start_cycle. Returns the slot index. All slots must be added before the
  /// first roll().
  std::size_t add(const Rng& rng, std::uint64_t thr, Cycle start);

  /// Advances every started slot one trial and latches its outcome. Call
  /// exactly once per simulated cycle, before reading fire(); `now` must be
  /// non-decreasing across calls.
  void roll(Cycle now);

  /// Outcome of slot's trial at the last roll() (false if not yet started).
  [[nodiscard]] bool fire(std::size_t slot) const {
    SSQ_EXPECT(slot < fire_.size());
    return fire_[slot] != 0;
  }

  /// One scalar draw from the slot's generator — the flow's length-draw
  /// stream, interleaved with its trials exactly as in the private Rng.
  [[nodiscard]] std::uint64_t draw(std::size_t slot);

  [[nodiscard]] std::size_t size() const noexcept { return thr_.size(); }
  [[nodiscard]] bool empty() const noexcept { return thr_.empty(); }

 private:
  // xoshiro256** state, one lane per slot.
  std::vector<std::uint64_t> s0_, s1_, s2_, s3_;
  std::vector<std::uint64_t> thr_;   // bernoulli_threshold, in [1, 2^53]
  std::vector<std::uint8_t> fire_;   // latched trial outcomes
  std::vector<Cycle> start_;         // per-slot first active cycle
  Cycle max_start_ = 0;  // all slots started once now >= this
};

}  // namespace ssq::traffic
