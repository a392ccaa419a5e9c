// What the client decodes: after an image completes, the client's decoder
// holds exactly the server pyramid's bands up to the resolution it asked
// for, coefficient for coefficient, and no band above it.  That makes the
// paper's `resolution` QoS a checked fact rather than a counted level.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "viz/world.hpp"
#include "wavelet/progressive.hpp"

namespace avf::viz {
namespace {

using tunable::ConfigPoint;
using wavelet::Band;
using wavelet::Pyramid;
namespace progdetail = wavelet::progdetail;

ConfigPoint cfg(int dR, int c, int l) {
  ConfigPoint p;
  p.set("dR", dR);
  p.set("c", c);
  p.set("l", l);
  return p;
}

WorldSetup small_setup() {
  WorldSetup setup;
  setup.image_size = 256;
  setup.levels = 4;
  setup.image_count = 2;
  setup.link_bandwidth_bps = 500e3;
  return setup;
}

/// Every band at a level <= `resolution` equals the server's band; every
/// band above it is unallocated.
void expect_decoded(const Pyramid& got, const Pyramid& want, int resolution) {
  ASSERT_EQ(got.full_width(), want.full_width());
  ASSERT_EQ(got.full_height(), want.full_height());
  ASSERT_EQ(got.levels(), want.levels());
  for (int b = 0; b < progdetail::band_count(want.levels()); ++b) {
    const Band& band = progdetail::band_by_id(got, b);
    if (progdetail::band_in_level(b, resolution)) {
      EXPECT_TRUE(band.coeffs == progdetail::band_by_id(want, b).coeffs)
          << "band " << b;
    } else {
      EXPECT_TRUE(band.coeffs.empty()) << "band " << b;
    }
  }
}

class ClientDecode
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ClientDecode, FinalPyramidEqualsTheServersUpToTheResolution) {
  auto [codec, premeasured] = GetParam();
  WorldSetup setup = small_setup();
  // Without the size cache every reply is really compressed and really
  // decompressed (fidelity mode); with it replies are premeasured and the
  // client decodes the server's shared payload in place.
  if (!premeasured) setup.server_options.size_cache = nullptr;
  VizWorld world(setup);
  world.make_client(cfg(160, codec, 3));
  SessionResult result = std::move(run_world(world).clients.front());
  ASSERT_EQ(result.images.size(), 2u);
  EXPECT_EQ(result.images.back().resolution, 3);
  PyramidEntry last = cached_pyramid_entry(
      setup.image_size, setup.image_seed + 1, setup.levels);
  expect_decoded(world.client().decoder().pyramid(), *last.pyramid, 3);
}

INSTANTIATE_TEST_SUITE_P(CodecsAndModes, ClientDecode,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Bool()));

/// Fetch `ids` in order, keeping a copy of the decoded pyramid after each.
sim::Task<> fetch_each(VizClient* client, std::vector<std::uint32_t> ids,
                       std::vector<Pyramid>* decoded) {
  for (std::uint32_t id : ids) {
    (void)co_await client->fetch_image(id);
    decoded->push_back(client->decoder().pyramid());
  }
  co_await client->shutdown_server();
}

TEST(ClientDecodeReuse, GeometryChangeBuildsANewDecoder) {
  // The catalog holds the world's 256² 4-level images plus a 128² 4-level
  // and a 256² 3-level one.  One client fetches across every geometry
  // change and back; its single decoder must match the server each time.
  WorldSetup setup = small_setup();
  VizWorld world(setup);
  auto add = [&world](std::uint32_t id, int size, int levels) {
    auto pyramid = std::make_shared<const Pyramid>(
        wavelet::Image::synthetic(size, size, 100 + id), levels);
    world.server().add_image(id, pyramid,
                             wavelet::pyramid_content_hash(*pyramid));
    return pyramid;
  };
  std::shared_ptr<const Pyramid> small = add(8, 128, 4);
  std::shared_ptr<const Pyramid> shallow = add(9, 256, 3);
  const Pyramid& first =
      *cached_pyramid_entry(256, setup.image_seed, 4).pyramid;
  const Pyramid& second =
      *cached_pyramid_entry(256, setup.image_seed + 1, 4).pyramid;

  VizClient& client = world.make_client(cfg(160, 1, 3));
  world.spawn_server_loops();
  std::vector<Pyramid> decoded;
  world.simulator().spawn(fetch_each(&client, {0, 8, 9, 9, 1}, &decoded));
  world.simulator().run();

  ASSERT_EQ(decoded.size(), 5u);
  const Pyramid* want[] = {&first, small.get(), shallow.get(),
                           shallow.get(), &second};
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(client.history()[i].resolution, 3);
    expect_decoded(decoded[i], *want[i], 3);
  }
}

}  // namespace
}  // namespace avf::viz
