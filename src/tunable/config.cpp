#include "tunable/config.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <stdexcept>

#include "util/fmt.hpp"

namespace avf::tunable {

int ConfigPoint::get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::out_of_range(util::format("no control parameter: {}", name));
  }
  return it->second;
}

std::optional<int> ConfigPoint::try_get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

ConfigPoint ConfigPoint::with(const std::string& name, int value) const {
  ConfigPoint copy = *this;
  copy.set(name, value);
  return copy;
}

std::string ConfigPoint::key() const {
  std::string out;
  for (const auto& [name, value] : values_) {
    if (!out.empty()) out += ',';
    out += util::format("{}={}", name, value);
  }
  return out;
}

ConfigPoint ConfigPoint::parse(const std::string& key) {
  ConfigPoint point;
  if (key.empty()) return point;
  std::size_t pos = 0;
  std::size_t item_index = 0;
  for (;;) {
    std::size_t comma = key.find(',', pos);
    bool last = comma == std::string::npos;
    if (last) comma = key.size();
    std::string_view item(key.data() + pos, comma - pos);
    if (item.empty()) {
      throw std::invalid_argument(util::format(
          last ? "config key \"{}\": trailing separator after item {}"
               : "config key \"{}\": empty item at position {}",
          key, item_index));
    }
    std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument(util::format(
          "config key \"{}\": item \"{}\" has no '='", key,
          std::string(item)));
    }
    if (eq == 0) {
      throw std::invalid_argument(util::format(
          "config key \"{}\": item \"{}\" has an empty parameter name", key,
          std::string(item)));
    }
    std::string name(item.substr(0, eq));
    std::string_view digits = item.substr(eq + 1);
    int value = 0;
    auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), value);
    if (ec == std::errc::result_out_of_range) {
      throw std::invalid_argument(util::format(
          "config key \"{}\": value \"{}\" for parameter {} is out of range",
          key, std::string(digits), name));
    }
    if (ec != std::errc() || end == digits.data()) {
      throw std::invalid_argument(util::format(
          "config key \"{}\": value \"{}\" for parameter {} is not an integer",
          key, std::string(digits), name));
    }
    if (end != digits.data() + digits.size()) {
      throw std::invalid_argument(util::format(
          "config key \"{}\": trailing characters after value in \"{}\"", key,
          std::string(item)));
    }
    if (point.try_get(name)) {
      throw std::invalid_argument(util::format(
          "config key \"{}\": duplicate parameter {}", key, name));
    }
    point.set(name, value);
    ++item_index;
    if (last) break;
    pos = comma + 1;
  }
  return point;
}

void ConfigSpace::add_parameter(const std::string& name,
                                std::vector<int> values,
                                std::source_location where) {
  if (values.empty()) {
    throw std::invalid_argument(
        util::format("parameter {} has empty domain", name));
  }
  if (has_parameter(name)) {
    throw std::invalid_argument(util::format("duplicate parameter: {}", name));
  }
  params_.push_back(ParamDomain{name, std::move(values), where});
}

void ConfigSpace::add_guard(std::string description,
                            std::function<bool(const ConfigPoint&)> predicate,
                            std::source_location where) {
  guards_.push_back(Guard{std::move(description), std::move(predicate), where});
}

bool ConfigSpace::has_parameter(const std::string& name) const {
  return std::any_of(params_.begin(), params_.end(),
                     [&](const ParamDomain& p) { return p.name == name; });
}

const ParamDomain& ConfigSpace::parameter(const std::string& name) const {
  for (const ParamDomain& p : params_) {
    if (p.name == name) return p;
  }
  throw std::out_of_range(util::format("no such parameter: {}", name));
}

void ConfigSpace::for_each_raw(
    const std::function<bool(const ConfigPoint&)>& fn) const {
  if (params_.empty()) return;
  std::vector<std::size_t> idx(params_.size(), 0);
  ConfigPoint point;
  for (;;) {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      point.set(params_[i].name, params_[i].values[idx[i]]);
    }
    if (!fn(point)) return;
    // Odometer increment.
    std::size_t i = params_.size();
    while (i-- > 0) {
      if (++idx[i] < params_[i].values.size()) break;
      idx[i] = 0;
      if (i == 0) return;
    }
  }
}

bool ConfigSpace::passes_guards(const ConfigPoint& point) const {
  return std::all_of(guards_.begin(), guards_.end(),
                     [&](const Guard& g) { return g.predicate(point); });
}

std::vector<ConfigPoint> ConfigSpace::enumerate() const {
  std::vector<ConfigPoint> out;
  for_each_raw([&](const ConfigPoint& point) {
    if (passes_guards(point)) out.push_back(point);
    return true;
  });
  return out;
}

bool ConfigSpace::valid(const ConfigPoint& point) const {
  for (const ParamDomain& p : params_) {
    auto v = point.try_get(p.name);
    if (!v) return false;
    if (std::find(p.values.begin(), p.values.end(), *v) == p.values.end()) {
      return false;
    }
  }
  return passes_guards(point);
}

std::size_t ConfigSpace::raw_size() const {
  if (params_.empty()) return 0;
  std::size_t total = 1;
  for (const ParamDomain& p : params_) {
    std::size_t n = p.values.size();
    if (total > std::numeric_limits<std::size_t>::max() / n) {
      return std::numeric_limits<std::size_t>::max();  // saturate
    }
    total *= n;
  }
  return total;
}

bool ConfigSpace::feasible() const {
  bool found = false;
  for_each_raw([&](const ConfigPoint& point) {
    found = passes_guards(point);
    return !found;
  });
  return found;
}

}  // namespace avf::tunable
