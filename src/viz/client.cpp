#include "viz/client.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "util/fmt.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace avf::viz {

namespace {

/// Throw a descriptive error when the server answered with kError; other
/// kinds pass through for the caller's decode to check.
void check_not_error(const sim::Message& msg) {
  if (msg.kind != kError) return;
  ErrorReply err = decode_error(msg);
  throw std::runtime_error(util::format(
      "viz client: server error {} for session {}",
      static_cast<int>(err.code), err.session_id));
}

}  // namespace

VizClient::VizClient(sandbox::Sandbox& box, sim::Endpoint& endpoint,
                     adapt::SteeringAgent* steering,
                     adapt::MonitoringAgent* monitor)
    : VizClient(box, endpoint, steering, monitor, Options{}) {}

VizClient::VizClient(sandbox::Sandbox& box, sim::Endpoint& endpoint,
                     adapt::SteeringAgent* steering,
                     adapt::MonitoringAgent* monitor, Options options)
    : box_(box),
      endpoint_(endpoint),
      steering_(steering),
      monitor_(monitor),
      options_(std::move(options)) {
  if (monitor_ != nullptr) {
    net_axis_ = monitor_->axis_id("net_bps");
    cpu_axis_ = monitor_->axis_id("cpu_share");
  }
}

const tunable::ConfigPoint& VizClient::config() const {
  return steering_ != nullptr ? steering_->active() : fixed_config_;
}

sim::Task<VizClient::ImageStats> VizClient::fetch_image(
    std::uint32_t image_id) {
  sim::Simulator& sim = box_.host().simulator();
  double host_speed = box_.host().cpu_speed();

  tunable::ConfigPoint cfg = config();
  if (cfg.empty()) {
    throw std::runtime_error("viz client: no configuration set");
  }
  int level = cfg.get("l");
  auto session_codec = static_cast<codec::CodecId>(cfg.get("c"));

  ImageStats stats;
  stats.image_id = image_id;
  stats.start_time = sim.now();

  // establish_connection + notify_server_compression_type.
  OpenImage open;
  open.session_id = options_.session_id;
  open.image_id = image_id;
  open.level = static_cast<std::uint8_t>(level);
  open.codec = static_cast<std::uint8_t>(session_codec);
  co_await box_.send(endpoint_, encode(open));
  sim::Message ack_msg = co_await endpoint_.recv();
  check_not_error(ack_msg);
  OpenAck ack = decode_open_ack(ack_msg);
  if (ack.session_id != options_.session_id) {
    throw std::runtime_error(util::format(
        "viz client: open-ack for session {}, expected {}", ack.session_id,
        options_.session_id));
  }

  if (decoder_ && decoder_->width() == ack.width &&
      decoder_->height() == ack.height && decoder_->levels() == ack.levels) {
    decoder_->reset();
  } else {
    decoder_.emplace(ack.width, ack.height, ack.levels, options_.tile_size);
  }
  wavelet::ProgressiveDecoder& decoder = *decoder_;
  int cx = options_.fovea_cx >= 0 ? options_.fovea_cx : ack.width / 2;
  int cy = options_.fovea_cy >= 0 ? options_.fovea_cy : ack.height / 2;
  int half = 0;

  util::RunningStats responses;
  for (int round = 0;; ++round) {
    double t0 = sim.now();  // QoS_monitor { t0 = clock(); }

    cfg = config();
    level = cfg.get("l");
    auto wanted_codec = static_cast<codec::CodecId>(cfg.get("c"));
    if (wanted_codec != session_codec) {
      // The transition action of Figure 2: notify the server of the new
      // compression type before the next request uses it.
      SetCodec set;
      set.session_id = options_.session_id;
      set.codec = static_cast<std::uint8_t>(wanted_codec);
      co_await box_.send(endpoint_, encode(set));
      session_codec = wanted_codec;
    }

    half += cfg.get("dR");  // r += control.dR
    Request request;
    request.session_id = options_.session_id;
    request.cx = static_cast<std::uint16_t>(cx);
    request.cy = static_cast<std::uint16_t>(cy);
    request.half = static_cast<std::uint16_t>(half);
    request.level = static_cast<std::uint8_t>(level);
    co_await box_.send(endpoint_, encode(request));

    sim::Message raw_msg = co_await endpoint_.recv();
    check_not_error(raw_msg);
    double wire_bytes = static_cast<double>(raw_msg.wire_size());
    double transfer_duration = raw_msg.delivered_at - raw_msg.sent_at;
    Reply reply = decode_reply(std::move(raw_msg));
    if (reply.session_id != options_.session_id) {
      throw std::runtime_error(util::format(
          "viz client: reply for session {}, expected {}", reply.session_id,
          options_.session_id));
    }
    stats.wire_bytes += reply.wire_len;

    // Monitoring: observed bandwidth from the reply's own transfer.
    if (monitor_ != nullptr && transfer_duration > 0.0 &&
        wire_bytes >= 4096.0) {
      monitor_->observe(net_axis_, wire_bytes / transfer_duration);
    }

    // decompress(control.c, &data) + reconstruction + update_display.
    double busy_start = sim.now();
    const codec::Codec& codec =
        codec::codec_for(static_cast<codec::CodecId>(reply.codec));
    co_await box_.compute(codec.decompress_ops(reply.raw_len));
    // payload_hash chains FNV-1a over every round's raw bytes, restarting
    // from the offset basis whenever the running value is 0.  A premeasured
    // body is the server's shared Blob: hashed in O(1) from its memo.  Only
    // freshly decompressed bytes are hashed in full.  Either way the
    // decoder indexes the raw Blob in place and holds it.
    const std::uint64_t chain =
        stats.payload_hash == 0 ? util::kFnv1aOffset : stats.payload_hash;
    std::shared_ptr<const util::Blob> raw =
        reply.premeasured
            ? reply.body
            : std::make_shared<const util::Blob>(codec.decompress(*reply.body));
    stats.payload_hash = raw->fnv1a64(chain);
    wavelet::ProgressiveDecoder::ApplyResult applied =
        decoder.apply(std::move(raw));
    double scale = static_cast<double>(1 << (ack.levels - level));
    double shown_w =
        std::min<double>(2.0 * half, ack.width) / scale;
    double shown_h =
        std::min<double>(2.0 * half, ack.height) / scale;
    double work = options_.fixed_round_ops +
                  options_.reconstruct_ops_per_coeff *
                      static_cast<double>(applied.coefficients) +
                  options_.display_ops_per_pixel * shown_w * shown_h;
    co_await box_.compute(work);
    double busy_duration = sim.now() - busy_start;

    // Monitoring: observed CPU share = work done / what a dedicated CPU
    // would have done in the same interval.
    if (monitor_ != nullptr && busy_duration > 0.0) {
      double total_ops = codec.decompress_ops(reply.raw_len) + work;
      double share = total_ops / (host_speed * busy_duration);
      monitor_->observe(cpu_axis_, std::clamp(share, 0.0, 1.0));
    }

    // QoS_monitor { response_time, transmit_time, resolution }.
    double round_time = sim.now() - t0;
    responses.add(round_time);
    stats.rounds = round + 1;
    stats.resolution = level;

    // check_for_user_interaction(&x, &y, &r, &control.dR).
    if (options_.interaction) {
      options_.interaction(round, cx, cy, half);
    }

    // Transition point: the steering agent may install a new configuration
    // here (task boundary of module1).
    if (steering_ != nullptr) steering_->apply_pending();

    if (reply.complete) break;
  }

  stats.end_time = sim.now();
  stats.transmit_time = stats.end_time - stats.start_time;
  stats.avg_response = responses.mean();
  stats.max_response = responses.max();
  stats.final_config = config().key();
  history_.push_back(stats);
  util::log_debug("viz.client", sim.now(),
                  "image {} done in {:.3f}s ({} rounds, cfg {})", image_id,
                  stats.transmit_time, stats.rounds, stats.final_config);
  co_return stats;
}

sim::Task<> VizClient::fetch_images(std::uint32_t first_id, int count) {
  for (int i = 0; i < count; ++i) {
    (void)co_await fetch_image(first_id + static_cast<std::uint32_t>(i));
  }
}

sim::Task<> VizClient::shutdown_server() {
  co_await box_.send(endpoint_, encode_shutdown());
}

}  // namespace avf::viz
