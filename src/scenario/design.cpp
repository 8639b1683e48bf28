#include "scenario/design.h"

#include <algorithm>

#include "scenario/scenario_config.h"

namespace sorn {

DesignRegistry& DesignRegistry::instance() {
  static DesignRegistry* registry = [] {
    auto* r = new DesignRegistry();
    register_builtin_designs(*r);
    return r;
  }();
  return *registry;
}

void DesignRegistry::add(std::unique_ptr<Design> design) {
  const std::string name = design->name();
  for (auto& d : designs_) {
    if (d->name() == name) {
      d = std::move(design);
      return;
    }
  }
  const auto pos = std::lower_bound(
      designs_.begin(), designs_.end(), name,
      [](const std::unique_ptr<Design>& d, const std::string& key) {
        return d->name() < key;
      });
  designs_.insert(pos, std::move(design));
}

const Design* DesignRegistry::find(const std::string& name) const {
  for (const auto& d : designs_)
    if (d->name() == name) return d.get();
  return nullptr;
}

std::vector<std::string> DesignRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(designs_.size());
  for (const auto& d : designs_) out.push_back(d->name());
  return out;
}

bool DesignRegistry::build(const std::string& name,
                           const ScenarioConfig& config, BuiltDesign* out,
                           std::string* error) const {
  const Design* design = find(name);
  if (design == nullptr) {
    if (error != nullptr) {
      std::string msg = "unknown design '" + name + "' (available:";
      for (const auto& n : names()) msg += " " + n;
      msg += ")";
      *error = msg;
    }
    return false;
  }
  // Hand the factory a fresh value so no field of a previous build (a
  // stale bulk_router or hierarchy) can leak through, and so *out really
  // is untouched on failure.
  BuiltDesign built;
  if (!design->build(config, &built, error)) return false;
  *out = std::move(built);
  return true;
}

}  // namespace sorn
