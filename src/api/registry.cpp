#include "api/registry.hpp"

#include "api/engine_family.hpp"
#include "api/engines.hpp"

namespace stamped::api {

const std::vector<TimestampFamily>& registry() {
  static const std::vector<TimestampFamily> families = {
      engine_family<MaxscanEngine>(),  engine_family<SimpleEngine>(),
      engine_family<SqrtEngine>(),     engine_family<GrowingEngine<>>(),
      engine_family<FetchAddEngine>(), engine_family<BoundedEngine>(),
  };
  return families;
}

const TimestampFamily* find_family(std::string_view name) {
  for (const auto& fam : registry()) {
    if (fam.name == name) return &fam;
  }
  return nullptr;
}

const TimestampFamily& family(std::string_view name) {
  const TimestampFamily* fam = find_family(name);
  STAMPED_ASSERT_MSG(fam != nullptr,
                     "unknown timestamp family '" << std::string(name)
                                                  << "'");
  return *fam;
}

}  // namespace stamped::api
