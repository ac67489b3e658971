#include "traffic/bernoulli_bank.hpp"

namespace ssq::traffic {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// One xoshiro256** step on a single SoA lane — same update as
// Rng::operator(), state spread across the four arrays.
std::uint64_t step_lane(std::uint64_t& s0, std::uint64_t& s1,
                        std::uint64_t& s2, std::uint64_t& s3) noexcept {
  const std::uint64_t result = rotl(s1 * 5, 7) * 9;
  const std::uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = rotl(s3, 45);
  return result;
}

}  // namespace

std::size_t BernoulliBank::add(const Rng& rng, std::uint64_t thr, Cycle start) {
  SSQ_EXPECT(thr != kBernoulliNever && thr != kBernoulliAlways);
  const auto st = rng.state();
  s0_.push_back(st[0]);
  s1_.push_back(st[1]);
  s2_.push_back(st[2]);
  s3_.push_back(st[3]);
  thr_.push_back(thr);
  fire_.push_back(0);
  start_.push_back(start);
  if (start > max_start_) max_start_ = start;
  return thr_.size() - 1;
}

void BernoulliBank::roll(Cycle now) {
  const std::size_t n = thr_.size();
  if (n == 0) return;
  if (now >= max_start_) {
    // Steady state: every stream is live — one pass over all slots.
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t x = step_lane(s0_[k], s1_[k], s2_[k], s3_[k]);
      fire_[k] = (x >> 11) < thr_[k] ? 1 : 0;
    }
    return;
  }
  // Warm-up with late joiners: a not-yet-started stream must not consume a
  // draw (packets_at returns before rolling), so step slots individually.
  for (std::size_t k = 0; k < n; ++k) {
    if (now < start_[k]) {
      fire_[k] = 0;
      continue;
    }
    const std::uint64_t x = step_lane(s0_[k], s1_[k], s2_[k], s3_[k]);
    fire_[k] = (x >> 11) < thr_[k] ? 1 : 0;
  }
}

std::uint64_t BernoulliBank::draw(std::size_t slot) {
  SSQ_EXPECT(slot < thr_.size());
  return step_lane(s0_[slot], s1_[slot], s2_[slot], s3_[slot]);
}

}  // namespace ssq::traffic
