#include "core/job_key.hpp"

#include <cmath>
#include <cstdint>

#include "util/check.hpp"

namespace edea::core {

void JobKey::validate(std::string_view what, std::string_view name) const {
  // Built only on failure: validation runs on every service submission.
  const auto owner = [&] {
    std::string text(what);
    if (!name.empty()) text += " '" + std::string(name) + "'";
    return text + ": ";
  };
  // A NaN clock would make the key unequal to itself: a cache entry under
  // it could never be found, and a cache file would load it again on
  // every load_cache. Infinity is no clock either.
  EDEA_REQUIRE(std::isfinite(config.clock_ghz),
               owner() + "clock_ghz must be finite, got " +
                   std::to_string(config.clock_ghz));
  EDEA_REQUIRE(backend_known(backend),
               owner() + "unknown backend '" + backend +
                   "' (known: " + known_backends_string() + ")");
  for (const CountDim& dim : kCountDims) {
    EDEA_REQUIRE(this->*dim.field >= 1,
                 owner() + dim.name + " must be >= 1, got " +
                     std::to_string(this->*dim.field));
  }
}

bool JobKey::precedes(const JobKey& other) const {
  if (config.hash() != other.config.hash()) {
    return config.hash() < other.config.hash();
  }
  if (backend != other.backend) return backend < other.backend;
  for (const CountDim& dim : kCountDims) {
    if (this->*dim.field != other.*dim.field) {
      return this->*dim.field < other.*dim.field;
    }
  }
  return false;
}

void JobKey::encode(util::ByteWriter& w) const {
  config.encode(w);
  w.str(backend);
  for (const CountDim& dim : kCountDims) {
    w.pod(static_cast<std::int32_t>(this->*dim.field));
  }
}

JobKey JobKey::decode(util::ByteReader& r, std::string_view file) {
  JobKey key;
  key.config = EdeaConfig::decode(r);
  key.backend = r.str();
  for (const CountDim& dim : kCountDims) {
    key.*dim.field = static_cast<int>(r.pod<std::int32_t>());
  }
  key.validate("cache file", file);
  return key;
}

}  // namespace edea::core
