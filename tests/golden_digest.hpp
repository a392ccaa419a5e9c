// Golden-digest format shared by the byte-format pins (codec output,
// progressive tile streams, protocol messages).  A pin fails by name when
// one output byte moves; update one only for a deliberate format change.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "util/hash.hpp"

namespace avf::golden {

/// "<size>:<Hasher128 digest, hi then lo, in hex>".
inline std::string digest(std::span<const std::uint8_t> bytes) {
  util::Hash128 h = util::Hasher128::of(bytes.data(), bytes.size());
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h.hi),
                static_cast<unsigned long long>(h.lo));
  return std::to_string(bytes.size()) + ":" + buf;
}

}  // namespace avf::golden
