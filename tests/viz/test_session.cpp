// Integration tests: full client/server sessions in the simulated world.
// These use small images (256x256) to keep the real compression work modest;
// the figure benchmarks use the full 1024x1024 setup.
#include <gtest/gtest.h>

#include "viz/world.hpp"

namespace avf::viz {
namespace {

using tunable::ConfigPoint;

WorldSetup small_setup() {
  WorldSetup setup;
  setup.image_size = 256;
  setup.levels = 4;
  setup.image_count = 1;
  setup.link_bandwidth_bps = 500e3;
  return setup;
}

ConfigPoint cfg(int dR, int c, int l) {
  ConfigPoint p;
  p.set("dR", dR);
  p.set("c", c);
  p.set("l", l);
  return p;
}

TEST(VizSpec, DeclaresPaperKnobs) {
  const tunable::AppSpec& spec = viz_app_spec();
  EXPECT_EQ(spec.space().parameter_count(), 3u);
  EXPECT_EQ(spec.space().enumerate().size(), 18u);  // 3 x 3 x 2
  EXPECT_TRUE(spec.metrics().has("transmit_time"));
  EXPECT_TRUE(spec.metrics().has("response_time"));
  EXPECT_TRUE(spec.metrics().has("resolution"));
  EXPECT_EQ(spec.resource_axes(),
            (std::vector<std::string>{"cpu_share", "net_bps"}));
  EXPECT_EQ(spec.tasks().size(), 1u);
  EXPECT_EQ(spec.transitions().size(), 1u);
}

TEST(VizSession, FixedSessionCompletes) {
  SessionResult r = run_fixed_session(small_setup(), cfg(80, 1, 4));
  ASSERT_EQ(r.images.size(), 1u);
  EXPECT_GT(r.images[0].transmit_time, 0.0);
  EXPECT_GT(r.images[0].rounds, 1);
  EXPECT_EQ(r.images[0].resolution, 4);
  EXPECT_GT(r.images[0].wire_bytes, 1000u);
}

TEST(VizSession, InvalidConfigRejected) {
  EXPECT_THROW(run_fixed_session(small_setup(), cfg(80, 9, 4)),
               std::invalid_argument);
}

TEST(VizSession, LowerResolutionIsFasterAndSmaller) {
  SessionResult l4 = run_fixed_session(small_setup(), cfg(80, 1, 4));
  SessionResult l3 = run_fixed_session(small_setup(), cfg(80, 1, 3));
  EXPECT_LT(l3.images[0].transmit_time, l4.images[0].transmit_time);
  EXPECT_LT(l3.images[0].wire_bytes, l4.images[0].wire_bytes);
  EXPECT_EQ(l3.images[0].resolution, 3);
}

TEST(VizSession, LargerFoveaFewerRoundsHigherResponse) {
  SessionResult small_fovea = run_fixed_session(small_setup(), cfg(80, 1, 4));
  SessionResult big_fovea = run_fixed_session(small_setup(), cfg(320, 1, 4));
  EXPECT_GT(small_fovea.images[0].rounds, big_fovea.images[0].rounds);
  EXPECT_LT(small_fovea.images[0].avg_response,
            big_fovea.images[0].avg_response);
  // Fewer per-round overheads -> total no worse.
  EXPECT_LE(big_fovea.images[0].transmit_time,
            small_fovea.images[0].transmit_time);
}

TEST(VizSession, CompressionReducesWireBytes) {
  SessionResult raw = run_fixed_session(small_setup(), cfg(160, 0, 4));
  SessionResult lzw = run_fixed_session(small_setup(), cfg(160, 1, 4));
  SessionResult bwt = run_fixed_session(small_setup(), cfg(160, 2, 4));
  EXPECT_LT(lzw.images[0].wire_bytes, raw.images[0].wire_bytes);
  EXPECT_LT(bwt.images[0].wire_bytes, lzw.images[0].wire_bytes);
}

TEST(VizSession, SlowerCpuSlowsSession) {
  WorldSetup fast = small_setup();
  WorldSetup slow = small_setup();
  slow.client_cpu_share = 0.2;
  SessionResult f = run_fixed_session(fast, cfg(160, 1, 4));
  SessionResult s = run_fixed_session(slow, cfg(160, 1, 4));
  EXPECT_GT(s.images[0].transmit_time, f.images[0].transmit_time);
}

TEST(VizSession, LessBandwidthSlowsSession) {
  WorldSetup fast = small_setup();
  WorldSetup slow = small_setup();
  slow.link_bandwidth_bps = 50e3;
  SessionResult f = run_fixed_session(fast, cfg(160, 1, 4));
  SessionResult s = run_fixed_session(slow, cfg(160, 1, 4));
  EXPECT_GT(s.images[0].transmit_time, 3.0 * f.images[0].transmit_time);
}

TEST(VizSession, MultipleImagesSequential) {
  WorldSetup setup = small_setup();
  setup.image_count = 3;
  SessionResult r = run_fixed_session(setup, cfg(160, 1, 4));
  ASSERT_EQ(r.images.size(), 3u);
  for (std::size_t i = 1; i < r.images.size(); ++i) {
    EXPECT_GE(r.images[i].start_time, r.images[i - 1].end_time);
  }
}

TEST(VizSession, DeterministicAcrossRuns) {
  SessionResult a = run_fixed_session(small_setup(), cfg(160, 1, 4));
  SessionResult b = run_fixed_session(small_setup(), cfg(160, 1, 4));
  EXPECT_DOUBLE_EQ(a.images[0].transmit_time, b.images[0].transmit_time);
  EXPECT_EQ(a.images[0].wire_bytes, b.images[0].wire_bytes);
}

TEST(VizSession, SizeCacheDoesNotChangeTiming) {
  // With the compressed-size cache disabled, every reply is really
  // compressed and really decompressed; the simulated times must be
  // identical to the cached run (the cache is a pure CPU-time optimization
  // of the *experiment harness*, not of the simulated application).
  ServerCaches caches;
  WorldSetup cached = small_setup();
  caches.attach(cached);
  WorldSetup uncached = small_setup();
  SessionResult a = run_fixed_session(cached, cfg(160, 2, 4));
  SessionResult b = run_fixed_session(uncached, cfg(160, 2, 4));
  ASSERT_EQ(a.images.size(), b.images.size());
  EXPECT_NEAR(a.images[0].transmit_time, b.images[0].transmit_time, 1e-9);
  EXPECT_EQ(a.images[0].wire_bytes, b.images[0].wire_bytes);
  EXPECT_EQ(a.images[0].rounds, b.images[0].rounds);
  EXPECT_GT(caches.size.misses(), 0u);  // the cached run really premeasured
}

TEST(VizSession, BandwidthStepMidSessionSlowsLaterImages) {
  WorldSetup setup = small_setup();
  setup.image_count = 4;
  ResourceSchedule schedule;
  SessionResult base = run_fixed_session(setup, cfg(160, 1, 4));
  double step_at = base.images[1].end_time + 0.01;
  schedule.link_bandwidth = {{step_at, 50e3}};
  SessionResult stepped = run_fixed_session(setup, cfg(160, 1, 4), schedule);
  // Images before the step match the baseline; after it they are slower.
  EXPECT_NEAR(stepped.images[0].transmit_time, base.images[0].transmit_time,
              1e-9);
  EXPECT_GT(stepped.images[3].transmit_time,
            2.0 * base.images[3].transmit_time);
}

TEST(VizSession, QuantizedEnforcementCloseToFluid) {
  WorldSetup fluid = small_setup();
  fluid.client_cpu_share = 0.4;
  WorldSetup quantized = fluid;
  quantized.enforcement = sandbox::CpuEnforcement::kQuantized;
  SessionResult f = run_fixed_session(fluid, cfg(160, 1, 4));
  SessionResult q = run_fixed_session(quantized, cfg(160, 1, 4));
  EXPECT_NEAR(q.images[0].transmit_time, f.images[0].transmit_time,
              0.15 * f.images[0].transmit_time);
}


TEST(VizSession, DelayedNetEnforcementMatchesFluid) {
  // The paper's actual network mechanism (delaying sends) and the fluid
  // link cap must agree on session timing when the server's bandwidth is
  // the binding constraint.
  WorldSetup fluid = small_setup();
  fluid.server_net_bps = 100e3;
  WorldSetup delayed = fluid;
  delayed.net_enforcement = sandbox::NetEnforcement::kDelayed;
  SessionResult f = run_fixed_session(fluid, cfg(160, 1, 4));
  SessionResult d = run_fixed_session(delayed, cfg(160, 1, 4));
  // Delayed mode paces each message *before* injection rather than during,
  // so the two mechanisms differ by up to one burst per round.
  EXPECT_NEAR(d.images[0].transmit_time, f.images[0].transmit_time,
              0.15 * f.images[0].transmit_time);
  EXPECT_EQ(d.images[0].wire_bytes, f.images[0].wire_bytes);
}

TEST(VizSession, ServerStatsAccumulate) {
  WorldSetup setup = small_setup();
  VizWorld world(setup);
  VizClient& client = world.make_client(cfg(160, 1, 4));
  auto& sim = world.simulator();
  sim.spawn(world.server().run());
  auto driver = [&]() -> sim::Task<> {
    co_await client.fetch_images(0, 1);
    co_await client.shutdown_server();
  };
  sim.spawn(driver());
  sim.run();
  EXPECT_GT(world.server().requests_served(), 0u);
  EXPECT_GT(world.server().raw_bytes_encoded(), 0u);
  EXPECT_GT(world.server().wire_bytes_sent(), 0u);
  EXPECT_LT(world.server().wire_bytes_sent(),
            world.server().raw_bytes_encoded());
}

}  // namespace
}  // namespace avf::viz
