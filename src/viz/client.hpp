// Client component of the Active Visualization application — the tunable
// side (paper Figure 2).  Implements the annotated foveal loop: request the
// growing foveal square up to the preferred resolution, decompress, update
// the display, check for user interaction — with QoS_monitor blocks feeding
// the quality metrics, monitoring hooks estimating actually-available
// resources from observed progress, and the steering agent's transition
// point at the end of every round.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "adapt/monitor.hpp"
#include "adapt/steering.hpp"
#include "codec/codec.hpp"
#include "sandbox/sandbox.hpp"
#include "sim/link.hpp"
#include "sim/task.hpp"
#include "tunable/config.hpp"
#include "tunable/qos.hpp"
#include "viz/protocol.hpp"
#include "wavelet/progressive.hpp"

namespace avf::viz {

class VizClient {
 public:
  // CPU cost calibration (DESIGN.md §5): a 450 Mops client spends ~3 s of
  // CPU per full-resolution 1024x1024 image (wavelet reconstruction +
  // rendering), matching the CPU-bound behavior of the paper's client.
  struct Options {
    int tile_size = 16;
    double fixed_round_ops = 9e6;               // ~20 ms per round
    double reconstruct_ops_per_coeff = 250.0;   // inverse DWT
    double display_ops_per_pixel = 400.0;       // colormap + blit
    /// Session id carried on every protocol message (non-zero, unique per
    /// client against one server).  The default suits single-client worlds.
    std::uint32_t session_id = 1;
    /// Foveal center; -1 = image center.
    int fovea_cx = -1;
    int fovea_cy = -1;
    /// Optional user-interaction trace, invoked once per round (the
    /// `check_for_user_interaction` call); may move the fovea and resize
    /// the current half-extent.
    std::function<void(int round, int& cx, int& cy, int& half)> interaction;
  };

  /// `steering` may be null, in which case a fixed configuration (set via
  /// set_fixed_config) is used — the non-adaptive baseline mode.
  /// `monitor` may be null to disable availability reporting.
  VizClient(sandbox::Sandbox& box, sim::Endpoint& endpoint,
            adapt::SteeringAgent* steering, adapt::MonitoringAgent* monitor);
  VizClient(sandbox::Sandbox& box, sim::Endpoint& endpoint,
            adapt::SteeringAgent* steering, adapt::MonitoringAgent* monitor,
            Options options);

  void set_fixed_config(const tunable::ConfigPoint& config) {
    fixed_config_ = config;
  }

  /// QoS record for one downloaded image.
  struct ImageStats {
    std::uint32_t image_id = 0;
    double start_time = 0.0;
    double end_time = 0.0;
    double transmit_time = 0.0;   ///< QoS.transmit_time
    double avg_response = 0.0;    ///< QoS.response_time (mean round time)
    double max_response = 0.0;
    int rounds = 0;
    int resolution = 0;           ///< QoS.resolution (level of last round)
    std::uint64_t wire_bytes = 0;
    /// FNV-1a over every round's raw (decompressed) payload bytes, in
    /// arrival order.  Identical across cached/uncached server paths and
    /// any client count — the byte-equality witness the tests compare.
    std::uint64_t payload_hash = 0;
    std::string final_config;     ///< config key active at completion
  };

  /// Fetch one complete image (through the progressive loop).
  sim::Task<ImageStats> fetch_image(std::uint32_t image_id);

  /// Fetch `count` images in sequence (the experiments' "downloading of
  /// ten images from the server").
  sim::Task<> fetch_images(std::uint32_t first_id, int count);

  /// Ask the server loop to exit.
  sim::Task<> shutdown_server();

  const std::vector<ImageStats>& history() const { return history_; }

  /// Currently active configuration (steered or fixed).
  const tunable::ConfigPoint& config() const;

  /// The decoder of the last image fetched, holding what it received;
  /// throws std::bad_optional_access before the first image.
  const wavelet::ProgressiveDecoder& decoder() const {
    return decoder_.value();
  }

 private:
  sandbox::Sandbox& box_;
  sim::Endpoint& endpoint_;
  adapt::SteeringAgent* steering_;
  adapt::MonitoringAgent* monitor_;
  // Axis ids resolved once at construction; fetch_image observes per round
  // and must not pay the name lookup per sample.
  std::size_t net_axis_ = 0;
  std::size_t cpu_axis_ = 0;
  Options options_;
  tunable::ConfigPoint fixed_config_;
  std::vector<ImageStats> history_;
  // One decoder for every image: reset between images of one geometry, so
  // the bands keep the capacity the last image allocated.
  std::optional<wavelet::ProgressiveDecoder> decoder_;
};

}  // namespace avf::viz
