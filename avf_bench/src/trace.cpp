#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace avf_bench {

namespace {

Clock::time_point trace_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::int64_t since_epoch_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                              trace_epoch())
      .count();
}

/// Every counter the fluid engine bumps on an arrival, departure or
/// capacity change; the sum moves whenever the resource did any work.
std::uint64_t fluid_marks(const avf::sim::FluidResource* r) {
  if (r == nullptr) return 0;
  return r->full_reallocs() + r->fast_reallocs() + r->rate_rescales() +
         r->rate_keeps() + r->flows_skipped() + r->sparse_activations() +
         r->sparse_events() + r->boundary_crossings() + r->level_updates() +
         r->noop_slot_reallocs();
}

struct Marks {
  std::uint64_t codec = 0;
  std::uint64_t server = 0;
  std::uint64_t client = 0;
  std::uint64_t decide = 0;
  std::uint64_t link = 0;
};

Marks read_marks(const WorldProbe& p) {
  Marks m;
  if (p.chunk_cache != nullptr) m.codec = p.chunk_cache->misses();
  m.server = p.server->requests_served() + p.server->raw_bytes_encoded() +
             p.server->wire_bytes_sent() + p.server->protocol_errors() +
             fluid_marks(p.server_cpu);
  if (p.region_cache != nullptr) {
    m.server += p.region_cache->hits() + p.region_cache->misses();
  }
  m.client = fluid_marks(p.client_cpu);
  if (p.decisions != nullptr) {
    const avf::adapt::DecisionCache::Stats s = p.decisions->stats();
    m.decide = s.hits + s.misses;
  }
  m.link = fluid_marks(p.link_forward) + fluid_marks(p.link_backward);
  return m;
}

Layer classify(const Marks& before, const Marks& after) {
  if (after.codec != before.codec) return Layer::kCodecCompress;
  if (after.server != before.server) return Layer::kVizServer;
  if (after.client != before.client) return Layer::kVizClient;
  if (after.decide != before.decide) return Layer::kAdaptDecide;
  if (after.link != before.link) return Layer::kSimLink;
  return Layer::kSimOther;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kCodecCompress: return "codec.compress";
    case Layer::kVizServer: return "viz.server";
    case Layer::kVizClient: return "viz.client";
    case Layer::kAdaptDecide: return "adapt.decide";
    case Layer::kSimLink: return "sim.link";
    case Layer::kSimOther: return "sim.other";
    case Layer::kVizWorld: return "viz.world";
    case Layer::kAdaptStack: return "adapt.stack";
    case Layer::kPerfdbRun: return "perfdb.run";
    case Layer::kPerfdbBuild: return "perfdb.build";
    case Layer::kWaveletPyramid: return "wavelet.pyramid";
    case Layer::kCount: break;
  }
  return "unknown";
}

void SpanSink::add(Layer layer, Clock::time_point start, Clock::time_point end,
                   std::uint64_t unit) {
  const auto i = static_cast<std::size_t>(layer);
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  ns_[i] += ns;
  ++n_[i];
  if (layer <= Layer::kSimOther) note_step_thread(std::this_thread::get_id());
  if (layer == Layer::kPerfdbRun) run_ns_.push_back(ns);
  if (keep_spans_) {
    spans_.push_back(Span{layer, thread_, unit, since_epoch_ns(start),
                          since_epoch_ns(end)});
  }
}

void SpanSink::merge(const SpanSink& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    ns_[i] += other.ns_[i];
    n_[i] += other.n_[i];
  }
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  run_ns_.insert(run_ns_.end(), other.run_ns_.begin(), other.run_ns_.end());
  for (std::thread::id id : other.step_threads_) note_step_thread(id);
}

void SpanSink::note_step_thread(std::thread::id id) {
  if (std::find(step_threads_.begin(), step_threads_.end(), id) ==
      step_threads_.end()) {
    step_threads_.push_back(id);
  }
}

bool write_spans_jsonl(const std::string& path,
                       const std::vector<Span>& spans) {
  std::ostringstream doc;
  for (const Span& s : spans) {
    doc << "{\"name\":\"" << layer_name(s.layer) << "\",\"thread\":"
        << s.thread << ",\"unit\":" << s.unit << ",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  std::ofstream out(path);
  out << doc.str();
  return static_cast<bool>(out);
}

WorldProbe WorldProbe::of(avf::viz::VizWorld& world,
                          const avf::viz::WorldSetup& setup,
                          const avf::adapt::DecisionCache* decisions) {
  WorldProbe p;
  p.link_forward = &world.link().forward();
  p.link_backward = &world.link().backward();
  p.client_cpu = &world.client_box(0).host().cpu();
  p.server_cpu = &world.server_box().host().cpu();
  p.server = &world.server();
  p.region_cache = setup.server_options.region_cache;
  p.chunk_cache = setup.server_options.chunk_cache;
  p.decisions = decisions;
  return p;
}

void run_stepped(avf::sim::Simulator& sim, const WorldProbe& probe,
                 SpanSink& sink, std::uint64_t unit) {
  Marks before = read_marks(probe);
  Clock::time_point start = Clock::now();
  while (sim.step()) {
    const Marks after = read_marks(probe);
    const Clock::time_point end = Clock::now();
    sink.add(classify(before, after), start, end, unit);
    before = after;
    start = end;
  }
  sim.run();
}

}  // namespace avf_bench
