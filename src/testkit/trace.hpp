// Deterministic event-trace recorder for the fault-injection harness.
//
// Every observable the harness cares about — fault applications, task
// completions, adaptation decisions, steering applies, monitor probes — is
// recorded as one line carrying the simulated time in exact bit form
// (hex of the IEEE-754 pattern, never a rounded decimal).  Two runs of the
// same seeded scenario must therefore produce byte-identical traces; any
// divergence is a determinism bug in the simulator or the harness, which is
// precisely what the golden-trace replay test checks end to end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace avf::testkit {

/// Exact textual form of a double: hex of its bit pattern.  Bit-identical
/// values — and only those — render identically.
std::string bits(double v);

class TraceRecorder {
 public:
  /// Append one line: "<time-bits> <kind> <detail>".
  void record(sim::SimTime time, const std::string& kind,
              const std::string& detail);

  const std::vector<std::string>& lines() const { return lines_; }
  std::size_t size() const { return lines_.size(); }

  /// FNV-1a 64 over all lines (with separators) — a compact fingerprint for
  /// golden comparison and for printing alongside a failing seed.
  std::uint64_t fingerprint() const;

  /// One line per record, '\n'-separated (for diffs on mismatch).
  std::string dump() const;

 private:
  std::vector<std::string> lines_;
};

}  // namespace avf::testkit
