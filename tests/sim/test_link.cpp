#include "sim/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace avf::sim {
namespace {

Message make_message(int kind, std::size_t payload_bytes) {
  Message m;
  m.kind = kind;
  m.payload.assign(payload_bytes, 0xAB);
  return m;
}

TEST(Link, TransferTimeIsLatencyPlusSerialization) {
  Simulator sim;
  Link link(sim, "l", /*bandwidth=*/1000.0, /*latency=*/0.1);
  Channel ch(link);
  double delivered = -1.0;
  auto sender = [&]() -> Task<> {
    co_await ch.a().send(make_message(1, 1000 - kMessageHeaderBytes));
  };
  auto receiver = [&]() -> Task<> {
    Message m = co_await ch.b().recv();
    delivered = sim.now();
    EXPECT_EQ(m.kind, 1);
  };
  sim.spawn(receiver());
  sim.spawn(sender());
  sim.run();
  // 1000 wire bytes at 1000 B/s = 1 s serialization + 0.1 s latency.
  EXPECT_NEAR(delivered, 1.1, 1e-9);
}

TEST(Link, DeliveryPreservesSendOrder) {
  Simulator sim;
  Link link(sim, "l", 1e6, 0.01);
  Channel ch(link);
  std::vector<int> got;
  auto sender = [&]() -> Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await ch.a().send(make_message(i, 100));
    }
  };
  auto receiver = [&]() -> Task<> {
    for (int i = 0; i < 5; ++i) {
      Message m = co_await ch.b().recv();
      got.push_back(m.kind);
    }
  };
  sim.spawn(receiver());
  sim.spawn(sender());
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Link, FullDuplexDirectionsAreIndependent) {
  Simulator sim;
  Link link(sim, "l", 1000.0, 0.0);
  Channel ch(link);
  double a_done = -1.0, b_done = -1.0;
  auto a_to_b = [&]() -> Task<> {
    co_await ch.a().send(make_message(1, 1000 - kMessageHeaderBytes));
    a_done = sim.now();
  };
  auto b_to_a = [&]() -> Task<> {
    co_await ch.b().send(make_message(2, 1000 - kMessageHeaderBytes));
    b_done = sim.now();
  };
  sim.spawn(a_to_b());
  sim.spawn(b_to_a());
  sim.run();
  // Full duplex: both directions serialize concurrently at full bandwidth.
  EXPECT_NEAR(a_done, 1.0, 1e-9);
  EXPECT_NEAR(b_done, 1.0, 1e-9);
}

TEST(Link, ShareSlotThrottlesSender) {
  Simulator sim;
  Link link(sim, "l", 1000.0, 0.0);
  Channel ch(link);
  ch.a().share_slot()->cap = 0.1;  // 100 B/s
  double sent = -1.0;
  auto sender = [&]() -> Task<> {
    co_await ch.a().send(make_message(1, 1000 - kMessageHeaderBytes));
    sent = sim.now();
  };
  sim.spawn(sender());
  sim.run();
  EXPECT_NEAR(sent, 10.0, 1e-9);
}

TEST(Link, BandwidthChangeMidTransfer) {
  Simulator sim;
  Link link(sim, "l", 1000.0, 0.0);
  Channel ch(link);
  double delivered = -1.0;
  auto sender = [&]() -> Task<> {
    co_await ch.a().send(make_message(1, 1000 - kMessageHeaderBytes));
  };
  auto receiver = [&]() -> Task<> {
    (void)co_await ch.b().recv();
    delivered = sim.now();
  };
  sim.spawn(receiver());
  sim.spawn(sender());
  sim.schedule(0.5, [&] { link.set_bandwidth(100.0); });
  sim.run();
  // 500 bytes in 0.5 s, then 500 bytes at 100 B/s = 5 s.
  EXPECT_NEAR(delivered, 5.5, 1e-9);
}

TEST(Link, ByteCountersTrackTraffic) {
  Simulator sim;
  Link link(sim, "l", 1e6, 0.0);
  Channel ch(link);
  auto sender = [&]() -> Task<> {
    co_await ch.a().send(make_message(1, 100));
    co_await ch.a().send(make_message(2, 200));
  };
  auto receiver = [&]() -> Task<> {
    (void)co_await ch.b().recv();
    (void)co_await ch.b().recv();
  };
  sim.spawn(receiver());
  sim.spawn(sender());
  sim.run();
  std::uint64_t expected = 300 + 2 * kMessageHeaderBytes;
  EXPECT_EQ(ch.a().bytes_sent(), expected);
  EXPECT_EQ(ch.b().bytes_received(), expected);
}

TEST(Network, BuildsHostsLinksChannels) {
  Simulator sim;
  Network net(sim);
  Host& client = net.add_host("client", 450e6);
  Host& server = net.add_host("server", 450e6);
  Link& link = net.connect(client, server, 12.5e6, 0.001);
  Channel& ch = net.open_channel(link);
  EXPECT_THROW(net.add_host("client", 1.0), std::invalid_argument);
  EXPECT_EQ(net.links().size(), 1u);
  (void)ch;
}

TEST(Link, MessageTimestamps) {
  Simulator sim;
  Link link(sim, "l", 1000.0, 0.25);
  Channel ch(link);
  Message received;
  auto sender = [&]() -> Task<> {
    co_await sim.delay(1.0);
    co_await ch.a().send(make_message(1, 1000 - kMessageHeaderBytes));
  };
  auto receiver = [&]() -> Task<> { received = co_await ch.b().recv(); };
  sim.spawn(receiver());
  sim.spawn(sender());
  sim.run();
  EXPECT_DOUBLE_EQ(received.sent_at, 1.0);
  EXPECT_NEAR(received.delivered_at, 2.25, 1e-9);
}

}  // namespace
}  // namespace avf::sim
