#include "serve/request.hpp"

namespace bnloc::serve {

const char* to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::grid: return "grid";
    case EngineKind::particle: return "particle";
    case EngineKind::gauss: return "gauss";
  }
  return "?";
}

bool engine_kind_from(std::string_view name, EngineKind& out) {
  if (name == "grid") {
    out = EngineKind::grid;
  } else if (name == "particle") {
    out = EngineKind::particle;
  } else if (name == "gauss") {
    out = EngineKind::gauss;
  } else {
    return false;
  }
  return true;
}

std::string validate(const ServeRequest& request) {
  const std::string scenario_error = scenario_config_error(request.scenario);
  if (!scenario_error.empty()) return "scenario: " + scenario_error;
  std::string engine_error;
  switch (request.engine) {
    case EngineKind::grid:
      engine_error = GridBncl::config_error(request.grid);
      break;
    case EngineKind::particle:
      engine_error = ParticleBncl::config_error(request.particle);
      break;
    case EngineKind::gauss:
      engine_error = GaussianBncl::config_error(request.gauss);
      break;
  }
  if (!engine_error.empty()) return "engine_config: " + engine_error;
  return {};
}

std::unique_ptr<Localizer> make_localizer(const ServeRequest& request) {
  switch (request.engine) {
    case EngineKind::grid:
      return std::make_unique<GridBncl>(request.grid);
    case EngineKind::particle:
      return std::make_unique<ParticleBncl>(request.particle);
    case EngineKind::gauss:
      return std::make_unique<GaussianBncl>(request.gauss);
  }
  return nullptr;
}

}  // namespace bnloc::serve
