// Receive-side delivery contract: on_data sees every fresh byte exactly
// once, in order, with one call per contiguous reassembled segment — the
// same call boundaries whether a segment takes the in-order fast path
// (handed straight up) or waits in the reassembly map. Segments are fed
// straight into one passive-open connection, so every boundary below is
// exact.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "net/fabric.hpp"
#include "net/tcp.hpp"

namespace mahimahi::net {
namespace {

const Address kServer{Ipv4{10, 0, 0, 1}, 80};
const Address kPeer{Ipv4{100, 64, 0, 2}, 49152};

/// A server-side connection past its handshake, recording each on_data
/// call (and the peer's FIN) in order.
struct Receiver {
  EventLoop loop;
  Fabric fabric{loop};
  std::vector<std::string> calls;
  int depth{0};
  int max_depth{0};
  /// Runs inside on_data after the call is recorded.
  std::function<void(std::string_view)> on_data_hook;
  std::unique_ptr<TcpConnection> connection;

  Receiver() {
    TcpConnection::Callbacks callbacks;
    callbacks.on_data = [this](std::string_view bytes) {
      ++depth;
      max_depth = std::max(max_depth, depth);
      calls.emplace_back(bytes);
      if (on_data_hook) {
        on_data_hook(bytes);
      }
      --depth;
    };
    callbacks.on_peer_close = [this] { calls.emplace_back("<fin>"); };
    connection = std::make_unique<TcpConnection>(
        fabric, Side::kServer, kServer, kPeer, std::move(callbacks),
        TcpConnection::Config{});
    TcpSegment syn;
    syn.syn = true;
    connection->accept_syn(syn);
    segment(0, "");  // the handshake's final ACK
    EXPECT_TRUE(connection->established());
  }

  /// Feed a segment whose payload starts `offset` bytes into the stream.
  void segment(std::uint64_t offset, std::string bytes, bool fin = false) {
    Packet packet;
    packet.src = kPeer;
    packet.dst = kServer;
    packet.tcp.seq = 1 + offset;  // the peer's SYN consumed sequence 0
    packet.tcp.ack = 1;
    packet.tcp.has_ack = true;
    packet.tcp.fin = fin;
    packet.tcp.payload = Payload{std::move(bytes)};
    connection->handle_packet(std::move(packet));
  }
};

using Calls = std::vector<std::string>;

TEST(TcpDelivery, InOrderSegmentsArriveOneCallEach) {
  Receiver r;
  r.segment(0, "abc");
  r.segment(3, "defg");
  r.segment(7, "h");
  EXPECT_EQ(r.calls, (Calls{"abc", "defg", "h"}));
  EXPECT_EQ(r.connection->bytes_received_app(), 8u);
}

TEST(TcpDelivery, HoleThenFillDeliversFillThenQueued) {
  Receiver r;
  r.segment(0, "abc");
  r.segment(6, "ghi");  // hole at 3..5: held back
  r.segment(9, "jk");
  EXPECT_EQ(r.calls, (Calls{"abc"}));
  r.segment(3, "def");
  EXPECT_EQ(r.calls, (Calls{"abc", "def", "ghi", "jk"}));
  r.segment(11, "l");  // in order again once the map has drained
  EXPECT_EQ(r.calls, (Calls{"abc", "def", "ghi", "jk", "l"}));
  EXPECT_EQ(r.connection->bytes_received_app(), 12u);
}

TEST(TcpDelivery, DuplicateAndOverlappingSegmentsDeliverOnlyFreshBytes) {
  Receiver r;
  r.segment(0, "abcd");
  r.segment(0, "abcd");  // exact duplicate: nothing fresh
  r.segment(1, "bc");    // wholly old
  r.segment(2, "cdef");  // overlaps: only "ef" is fresh
  EXPECT_EQ(r.calls, (Calls{"abcd", "ef"}));
  r.segment(8, "ij");    // hole at 6..7
  r.segment(6, "ghij");  // fills the hole and covers the queued segment
  r.segment(9, "jklm");  // overlaps what was delivered
  EXPECT_EQ(r.calls, (Calls{"abcd", "ef", "ghij", "klm"}));
  EXPECT_EQ(r.connection->bytes_received_app(), 13u);
}

TEST(TcpDelivery, FinRightAfterInOrderData) {
  Receiver r;
  r.segment(0, "xy");
  r.segment(2, "z", /*fin=*/true);
  EXPECT_EQ(r.calls, (Calls{"xy", "z", "<fin>"}));
}

TEST(TcpDelivery, FinAheadOfAHoleWaitsForTheFill) {
  Receiver r;
  r.segment(2, "cd", /*fin=*/true);
  EXPECT_TRUE(r.calls.empty());
  r.segment(0, "ab");
  EXPECT_EQ(r.calls, (Calls{"ab", "cd", "<fin>"}));
}

TEST(TcpDelivery, CallbackThatAbortsStopsDelivery) {
  Receiver r;
  r.on_data_hook = [&r](std::string_view) { r.connection->abort(); };
  r.segment(0, "ab");
  EXPECT_TRUE(r.connection->closed());
  r.segment(2, "cd");  // a closed endpoint answers RST, delivers nothing
  EXPECT_EQ(r.calls, (Calls{"ab"}));
}

TEST(TcpDelivery, CallbackThatAbortsDropsQueuedSegments) {
  Receiver r;
  r.segment(2, "cd");
  r.on_data_hook = [&r](std::string_view) { r.connection->abort(); };
  r.segment(0, "ab");
  EXPECT_EQ(r.calls, (Calls{"ab"}));
}

TEST(TcpDelivery, ReentrantSegmentFromAZeroLatencyReplyIsNotNested) {
  // The callback replies and — as a zero-latency chain would — the next
  // in-order segment re-enters the connection before on_data returns. It
  // must be delivered after the outer call, not inside it.
  Receiver r;
  bool fed = false;
  r.on_data_hook = [&](std::string_view) {
    r.connection->send(std::string{"reply"});
    if (!fed) {
      fed = true;
      r.segment(2, "cd");
      EXPECT_EQ(r.calls, (Calls{"ab"}));
    }
  };
  r.segment(0, "ab");
  EXPECT_EQ(r.calls, (Calls{"ab", "cd"}));
  EXPECT_EQ(r.max_depth, 1);
  r.segment(4, "ef", /*fin=*/true);
  EXPECT_EQ(r.calls, (Calls{"ab", "cd", "ef", "<fin>"}));
  EXPECT_EQ(r.connection->bytes_received_app(), 6u);
}

TEST(TcpDelivery, ReentrantFinIsDeliveredAfterTheData) {
  Receiver r;
  r.on_data_hook = [&](std::string_view bytes) {
    if (bytes == "ab") {
      r.segment(2, "", /*fin=*/true);
    }
  };
  r.segment(0, "ab");
  EXPECT_EQ(r.calls, (Calls{"ab", "<fin>"}));
}

}  // namespace
}  // namespace mahimahi::net
