#include "testkit/trace.hpp"

#include <bit>
#include <ostream>

#include "util/fmt.hpp"
#include "util/hash.hpp"

namespace avf::testkit {

std::string bits(double v) {
  return util::format("{:x}", std::bit_cast<std::uint64_t>(v));
}

void TraceRecorder::record(sim::SimTime time, const std::string& kind,
                           const std::string& detail) {
  lines_.push_back(util::format("{} {} {}", bits(time), kind, detail));
}

std::uint64_t TraceRecorder::fingerprint() const {
  std::uint64_t h = util::kFnv1aOffset;
  for (const std::string& line : lines_) {
    h = util::fnv1a64(line.data(), line.size(), h);
    h = util::fnv1a64("\n", 1, h);
  }
  return h;
}

std::string TraceRecorder::dump() const {
  std::string out;
  for (const std::string& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

void TraceRecorder::dump(std::ostream& out) const {
  for (const std::string& line : lines_) out << line << '\n';
}

}  // namespace avf::testkit
