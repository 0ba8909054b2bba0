// TCP-under-reordering hardening.

#include <gtest/gtest.h>

#include "net/sim_fixture.hpp"
#include "util/random.hpp"

namespace mahimahi::net {
namespace {

using testing::SimNet;
using namespace mahimahi::literals;

const Address kServerAddr{Ipv4{10, 0, 0, 1}, 80};

/// Adds i.i.d. extra delay per packet, uniform in [0, max_extra]: a
/// reordering stressor (packets overtaking each other) for TCP
/// reassembly. Deterministic given its RNG.
class ReorderBox final : public NetworkElement {
 public:
  ReorderBox(EventLoop& loop, util::Rng rng, Microseconds max_extra)
      : loop_{loop}, rng_{std::move(rng)}, max_extra_{max_extra} {}

  void process(Packet&& packet, Direction direction) override {
    const Microseconds extra =
        max_extra_ == 0 ? 0 : rng_.uniform_int(0, max_extra_);
    if (extra == 0) {
      emit(std::move(packet), direction);
      return;
    }
    loop_.schedule_in(extra,
                      [this, packet = std::move(packet), direction]() mutable {
                        emit(std::move(packet), direction);
                      });
  }

 private:
  EventLoop& loop_;
  util::Rng rng_;
  Microseconds max_extra_;
};

TEST(ReorderBox, ActuallyReorders) {
  EventLoop loop;
  Chain chain;
  chain.push_back(std::make_unique<ReorderBox>(loop, util::Rng{7}, 5'000));
  std::vector<std::uint64_t> order;
  chain.set_outputs([&](Packet&& p) { order.push_back(p.id); }, [](Packet&&) {});
  loop.schedule_at(0, [&] {
    for (std::uint64_t i = 0; i < 50; ++i) {
      Packet p;
      p.id = i;
      chain.send_uplink(std::move(p));
    }
  });
  loop.run();
  ASSERT_EQ(order.size(), 50u);  // nothing lost
  bool out_of_order = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) {
      out_of_order = true;
    }
  }
  EXPECT_TRUE(out_of_order);
}

// TCP must deliver bytes exactly once, in order, under any combination of
// reordering and loss. This is the reassembly property sweep.
class TcpReorderSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(TcpReorderSweep, ExactlyOnceInOrder) {
  const auto [max_extra_ms, loss] = GetParam();
  SimNet net;
  net.add_delay(5_ms);
  net.fabric.chain().push_back(std::make_unique<ReorderBox>(
      net.loop, util::Rng{1234}, max_extra_ms * 1'000));
  if (loss > 0) {
    net.add_loss(util::Rng{77}, loss, loss);
  }

  std::string received;
  TcpListener listener{
      net.fabric, kServerAddr,
      [&received](const std::shared_ptr<TcpConnection>& conn) {
        TcpConnection::Callbacks cb;
        cb.on_data = [&received](std::string_view b) { received.append(b); };
        // Raw pointer: a shared_ptr captured in the connection's own
        // callbacks would be a reference cycle (leak).
        cb.on_peer_close = [raw = conn.get()] { raw->close(); };
        return cb;
      }};

  std::string payload;
  util::Rng rng{55};
  for (int i = 0; i < 80'000; ++i) {
    payload += static_cast<char>(rng.uniform_int(0, 255));
  }
  TcpClient client{net.fabric, kServerAddr, {}};
  client.connection().send(payload);
  client.connection().close();
  net.loop.run();
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TcpReorderSweep,
    ::testing::Combine(::testing::Values(0, 2, 10, 40),
                       ::testing::Values(0.0, 0.03)));

}  // namespace
}  // namespace mahimahi::net
