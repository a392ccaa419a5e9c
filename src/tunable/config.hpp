// Control parameters and configuration points — the "knobs" of a tunable
// application (paper §4): each parameter has a finite integer domain; a
// ConfigPoint assigns one value to every parameter; the ConfigSpace
// enumerates the cartesian product, filtered by guard predicates (the
// guards the paper attaches to task/transition constructs).
//
// Every registration call captures its std::source_location so that the
// spec linter (src/lint) can point diagnostics at the declaration site —
// the moral equivalent of the preprocessor reporting the offending
// annotation's file and line.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <source_location>
#include <string>
#include <vector>

namespace avf::tunable {

/// One control parameter: name + the discrete values it may take.
struct ParamDomain {
  std::string name;
  std::vector<int> values;
  /// Where add_parameter was called (linter diagnostics).
  std::source_location where;
};

/// A full assignment of values to control parameters.  Comparable and
/// usable as a map key; `key()` is the canonical "a=1,b=2" rendering used
/// by the performance database.
class ConfigPoint {
 public:
  ConfigPoint() = default;
  explicit ConfigPoint(std::map<std::string, int> values)
      : values_(std::move(values)) {}

  /// Value of parameter `name`; throws std::out_of_range if absent.
  int get(const std::string& name) const;
  std::optional<int> try_get(const std::string& name) const;
  void set(const std::string& name, int value) { values_[name] = value; }

  /// Returns a copy with one parameter changed.
  ConfigPoint with(const std::string& name, int value) const;

  const std::map<std::string, int>& values() const { return values_; }
  bool empty() const { return values_.empty(); }

  std::string key() const;
  /// Parse a key() rendering ("a=1,b=2").  Throws std::invalid_argument
  /// with a descriptive message on malformed input: missing or misplaced
  /// '=', empty parameter name, non-numeric or out-of-range value,
  /// trailing characters after the number, duplicate parameter, empty
  /// item, or trailing separator.
  static ConfigPoint parse(const std::string& key);

  auto operator<=>(const ConfigPoint&) const = default;

 private:
  std::map<std::string, int> values_;
};

/// Predicate restricting valid configurations.
struct Guard {
  std::string description;
  std::function<bool(const ConfigPoint&)> predicate;
  /// Where add_guard was called (linter diagnostics).
  std::source_location where;
};

class ConfigSpace {
 public:
  /// Declare a parameter; names must be unique, domains non-empty.
  void add_parameter(
      const std::string& name, std::vector<int> values,
      std::source_location where = std::source_location::current());

  void add_guard(std::string description,
                 std::function<bool(const ConfigPoint&)> predicate,
                 std::source_location where = std::source_location::current());

  const std::vector<ParamDomain>& parameters() const { return params_; }
  const ParamDomain& parameter(const std::string& name) const;
  bool has_parameter(const std::string& name) const;
  const std::vector<Guard>& guards() const { return guards_; }

  /// All guard-satisfying configurations, in lexicographic domain order.
  std::vector<ConfigPoint> enumerate() const;

  /// Visit the *unguarded* cartesian product of the declared domains in
  /// enumerate()'s order (last parameter fastest) until `fn` returns
  /// false.  Visits nothing when no parameters are declared.
  void for_each_raw(const std::function<bool(const ConfigPoint&)>& fn) const;

  /// Whether `point` assigns a valid domain value to every parameter and
  /// passes all guards.
  bool valid(const ConfigPoint& point) const;

  /// Size of the unguarded cartesian product (saturating; 0 when no
  /// parameters are declared).  raw_size() > 0 with an empty enumerate()
  /// means the guards filtered out every point — a reportable state the
  /// linter flags rather than a silent-empty space.
  std::size_t raw_size() const;

  /// At least one configuration passes every guard.  Equivalent to
  /// !enumerate().empty() but stops at the first admissible point.
  bool feasible() const;

  std::size_t parameter_count() const { return params_.size(); }
  std::size_t guard_count() const { return guards_.size(); }

 private:
  bool passes_guards(const ConfigPoint& point) const;

  std::vector<ParamDomain> params_;
  std::vector<Guard> guards_;
};

}  // namespace avf::tunable
