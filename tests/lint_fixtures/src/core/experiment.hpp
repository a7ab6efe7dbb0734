// Fixture: the StrategyKind roster the sweep-roster rule checks the
// to_string cases in experiment.cpp against.
#include <array>

namespace fedguard::core {

enum class StrategyKind { FedavgOk, GhostDefense };

inline constexpr std::array<StrategyKind, 1> kAllStrategyKinds{StrategyKind::FedavgOk};

}  // namespace fedguard::core
