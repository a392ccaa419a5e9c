#include "tunable/app_spec.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/fmt.hpp"

namespace avf::tunable {

void AppSpec::add_resource_axis(const std::string& axis,
                                std::source_location where) {
  if (std::find(axes_.begin(), axes_.end(), axis) != axes_.end()) {
    throw std::invalid_argument(
        util::format("duplicate resource axis: {}", axis));
  }
  axes_.push_back(axis);
  axis_sites_.push_back(where);
}

}  // namespace avf::tunable
