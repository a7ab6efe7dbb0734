#include "fl/fault_plan.hpp"

namespace fedguard::fl {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::None: return "none";
    case FaultKind::Drop: return "drop";
    case FaultKind::Delay: return "delay";
    case FaultKind::Truncate: return "truncate";
    case FaultKind::BitFlip: return "bit_flip";
    case FaultKind::Disconnect: return "disconnect";
    case FaultKind::NeverConnect: return "never_connect";
  }
  return "unknown";
}

bool FaultPlan::any() const noexcept {
  return drop_probability > 0.0 || delay_probability > 0.0 ||
         truncate_probability > 0.0 || bit_flip_probability > 0.0 ||
         disconnect_probability > 0.0 || never_connect_probability > 0.0;
}

FaultInjector::FaultInjector(FaultPlan plan) noexcept : plan_{plan} {}

util::Rng FaultInjector::stream(std::uint64_t tag, std::uint64_t a,
                                std::uint64_t b) const noexcept {
  // Hash (seed, tag, a, b) through splitmix64 so every (client, round) pair
  // gets an independent, scheduling-free stream.
  std::uint64_t state = plan_.seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  state ^= util::splitmix64(state) + (a + 1) * 0xbf58476d1ce4e5b9ULL;
  state ^= util::splitmix64(state) + (b + 1) * 0x94d049bb133111ebULL;
  return util::Rng{util::splitmix64(state)};
}

bool FaultInjector::never_connects(int client_id) const noexcept {
  if (plan_.never_connect_probability <= 0.0) return false;
  util::Rng rng = stream(0x1cefULL, static_cast<std::uint64_t>(client_id), 0);
  return rng.uniform() < plan_.never_connect_probability;
}

FaultKind FaultInjector::decide(int client_id, std::size_t round) const noexcept {
  util::Rng rng = stream(0xfa17ULL, static_cast<std::uint64_t>(client_id), round);
  const double u = rng.uniform();
  double edge = plan_.drop_probability;
  if (u < edge) return FaultKind::Drop;
  edge += plan_.delay_probability;
  if (u < edge) return FaultKind::Delay;
  edge += plan_.truncate_probability;
  if (u < edge) return FaultKind::Truncate;
  edge += plan_.bit_flip_probability;
  if (u < edge) return FaultKind::BitFlip;
  edge += plan_.disconnect_probability;
  if (u < edge) return FaultKind::Disconnect;
  return FaultKind::None;
}

std::size_t FaultInjector::corrupt_bit(int client_id, std::size_t round,
                                       std::size_t payload_bits) const noexcept {
  if (payload_bits == 0) return 0;
  util::Rng rng = stream(0xb17ULL, static_cast<std::uint64_t>(client_id), round);
  return static_cast<std::size_t>(rng.uniform_int(payload_bits));
}

void FaultInjector::record(FaultKind kind) noexcept {
  counts_[static_cast<std::size_t>(kind)].fetch_add(1, std::memory_order_relaxed);
}

std::size_t FaultInjector::injected(FaultKind kind) const noexcept {
  return counts_[static_cast<std::size_t>(kind)].load(std::memory_order_relaxed);
}

std::size_t FaultInjector::total_injected() const noexcept {
  std::size_t total = 0;
  for (std::size_t k = 1; k < kFaultKindCount; ++k) {
    total += counts_[k].load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace fedguard::fl
