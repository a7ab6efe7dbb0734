// Fixture: StrategyKind -> string table feeding the sweep-roster rule.
#include "core/experiment.hpp"
namespace fedguard::core {

// kAllStrategyKinds (experiment.hpp) lists FedavgOk alone.
const char* to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::FedavgOk: return "fedavg_ok";  // in kAllStrategyKinds: NOT flagged
    case StrategyKind::GhostDefense: return "ghost_defense";
    // ^ VIOLATION: mapped to a string but absent from kAllStrategyKinds.
  }
  return "";
}

}  // namespace fedguard::core
