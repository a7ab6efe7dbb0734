// Fixture: AttackType -> string table feeding the sweep-roster rule.
#include "attacks/attack.hpp"
namespace fedguard::attacks {

// kAllAttackTypes (attack.hpp) lists SigFlipOk alone.
const char* to_string(AttackType type) {
  switch (type) {
    case AttackType::SigFlipOk: return "sig_flip_ok";  // in kAllAttackTypes: NOT flagged
    case AttackType::GhostAttack: return "ghost_attack";
    // ^ VIOLATION: mapped to a string but absent from kAllAttackTypes.
    // fedguard-lint: allow(sweep-roster) bench-only fixture attack, deliberately unsweepable
    case AttackType::BenchOnly: return "bench_only";
  }
  return "";
}

}  // namespace fedguard::attacks
