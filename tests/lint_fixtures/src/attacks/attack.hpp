// Fixture: the AttackType roster the sweep-roster rule checks the to_string
// cases in attack.cpp against.
#include <array>

namespace fedguard::attacks {

enum class AttackType { SigFlipOk, GhostAttack, BenchOnly };

inline constexpr std::array<AttackType, 1> kAllAttackTypes{
    AttackType::SigFlipOk,
    // AttackType::GhostAttack is missing: a comment does not list it.
};

}  // namespace fedguard::attacks
