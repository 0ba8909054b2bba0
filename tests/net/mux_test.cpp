// The SPDY-like multiplexed protocol: frame codec, server interleaving,
// concurrent streams, and head-of-line behaviour.

#include "net/mux.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/sim_fixture.hpp"
#include "trace/synthesis.hpp"
#include "util/random.hpp"

namespace mahimahi::net::mux {
namespace {

using testing::SimNet;
using namespace mahimahi::literals;

const Address kServerAddr{Ipv4{10, 0, 0, 1}, 80};

/// The parser's next frame as an owned Frame (nullopt when none pending).
std::optional<Frame> next_frame(FrameParser& parser) {
  const auto view = parser.next();
  if (!view) {
    return std::nullopt;
  }
  return Frame{view->stream_id, view->type, std::string{view->payload}};
}

TEST(FrameCodec, RoundTripAllTypes) {
  for (const auto type :
       {Frame::Type::kRequest, Frame::Type::kData, Frame::Type::kEnd}) {
    Frame frame;
    frame.stream_id = 0xDEADBEEF;
    frame.type = type;
    frame.payload = type == Frame::Type::kEnd ? "" : "payload bytes";
    FrameParser parser;
    parser.push(encode_frame(frame));
    EXPECT_EQ(next_frame(parser), frame);
    EXPECT_EQ(next_frame(parser), std::nullopt);
    EXPECT_FALSE(parser.failed());
  }
}

TEST(FrameCodec, ByteAtATimeAndCoalesced) {
  Frame a{1, Frame::Type::kRequest, "GET"};
  Frame b{2, Frame::Type::kData, std::string(1000, 'x')};
  const std::string wire = encode_frame(a) + encode_frame(b);
  // Byte at a time.
  FrameParser slow;
  for (const char c : wire) {
    slow.push(std::string_view{&c, 1});
  }
  EXPECT_EQ(next_frame(slow), a);
  EXPECT_EQ(next_frame(slow), b);
  EXPECT_EQ(next_frame(slow), std::nullopt);
  // One shot.
  FrameParser fast;
  fast.push(wire);
  EXPECT_EQ(next_frame(fast), a);
  EXPECT_EQ(next_frame(fast), b);
}

TEST(FrameCodec, RejectsBadTypeAndOversizedFrames) {
  std::string wire = encode_frame(Frame{1, Frame::Type::kData, "x"});
  wire[4] = 99;  // bogus type
  FrameParser parser;
  parser.push(wire);
  EXPECT_TRUE(parser.failed());

  // Oversized declared length.
  std::string huge;
  for (int i = 0; i < 4; ++i) huge += '\0';
  huge += static_cast<char>(Frame::Type::kData);
  huge += "\xFF\xFF\xFF\xFF";
  FrameParser parser2;
  parser2.push(huge);
  EXPECT_TRUE(parser2.failed());
}

struct MuxHarness {
  SimNet net;
  MuxServer server;

  explicit MuxHarness(std::size_t chunk = 16 * 1024,
                      Microseconds think = 0)
      : server{net.fabric, kServerAddr,
               [](const http::Request& request) {
                 if (request.target == "/big") {
                   return http::to_framed_bytes(
                       http::make_ok(std::string(400'000, 'B')));
                 }
                 return http::to_framed_bytes(
                     http::make_ok("small:" + request.target, "text/plain"));
               },
               think, chunk} {
    net.add_delay(10_ms);
  }
};

TEST(Mux, SingleFetchRoundTrip) {
  MuxHarness h;
  MuxClientConnection client{h.net.fabric, kServerAddr};
  std::optional<http::Response> got;
  client.fetch(http::make_get("http://10.0.0.1/a"),
               [&](http::Response r) { got = std::move(r); });
  h.net.loop.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(got->body, "small:/a");
}

TEST(Mux, ManyConcurrentStreamsOneConnection) {
  MuxHarness h;
  MuxClientConnection client{h.net.fabric, kServerAddr};
  int responses = 0;
  for (int i = 0; i < 40; ++i) {
    client.fetch(http::make_get("http://10.0.0.1/s" + std::to_string(i)),
                 [&responses, i](http::Response r) {
                   EXPECT_EQ(r.body, "small:/s" + std::to_string(i));
                   ++responses;
                 });
  }
  h.net.loop.run();
  EXPECT_EQ(responses, 40);
  EXPECT_EQ(h.server.total_accepted(), 1u);  // one TCP connection
  EXPECT_EQ(h.server.requests_served(), 40u);
}

TEST(Mux, SmallResponseNotStuckBehindBigOne) {
  // HTTP/1.1 on one connection would serialize: big then small. The mux
  // interleaves chunks, so the small response lands long before the big
  // one finishes on a slow link.
  SimNet net;
  net.add_delay(5_ms);
  net.add_link(trace::constant_rate(10e6, 1_s), trace::constant_rate(2e6, 2_s));
  MuxServer server{net.fabric, kServerAddr,
                   [](const http::Request& request) {
                     if (request.target == "/big") {
                       return http::to_framed_bytes(
                           http::make_ok(std::string(300'000, 'B')));
                     }
                     return http::to_framed_bytes(http::make_ok("tiny"));
                   }};
  MuxClientConnection client{net.fabric, kServerAddr};
  Microseconds big_done = 0;
  Microseconds small_done = 0;
  client.fetch(http::make_get("http://10.0.0.1/big"),
               [&](http::Response r) {
                 EXPECT_EQ(r.body.size(), 300'000u);
                 big_done = net.loop.now();
               });
  client.fetch(http::make_get("http://10.0.0.1/small"),
               [&](http::Response) { small_done = net.loop.now(); });
  net.loop.run();
  ASSERT_GT(big_done, 0);
  ASSERT_GT(small_done, 0);
  // 300 KB at 2 Mbit/s is ~1.2 s; the small response must arrive in a
  // fraction of that thanks to interleaving.
  EXPECT_LT(small_done, big_done / 2);
}

TEST(Mux, ResponsesSurviveRandomLoss) {
  SimNet net;
  net.add_delay(10_ms);
  net.add_loss(util::Rng{11}, 0.05, 0.05);
  MuxServer server{net.fabric, kServerAddr, [](const http::Request& request) {
                     return http::to_framed_bytes(
                         http::make_ok("ok:" + request.target));
                   }};
  MuxClientConnection client{net.fabric, kServerAddr};
  int responses = 0;
  for (int i = 0; i < 20; ++i) {
    client.fetch(http::make_get("http://10.0.0.1/r" + std::to_string(i)),
                 [&](http::Response r) {
                   EXPECT_EQ(r.status, 200);
                   ++responses;
                 });
  }
  net.loop.run();
  EXPECT_EQ(responses, 20);  // TCP reliability underneath
}

TEST(Mux, ServerThinkTimeDelaysResponse) {
  MuxHarness h{16 * 1024, /*think=*/30_ms};
  MuxClientConnection client{h.net.fabric, kServerAddr};
  Microseconds done = 0;
  client.fetch(http::make_get("http://10.0.0.1/x"),
               [&](http::Response) { done = h.net.loop.now(); });
  h.net.loop.run();
  EXPECT_GE(done, 30_ms + 20_ms);  // think + RTT
}

TEST(Mux, MalformedRequestFrameGets400OthersStillServed) {
  // A garbage kRequest frame must not leave its stream hanging: the server
  // answers it with 400 and keeps the connection's other streams alive.
  SimNet net;
  net.add_delay(2_ms);
  MuxServer server{net.fabric, kServerAddr, [](const http::Request& request) {
                     return http::to_framed_bytes(
                         http::make_ok("ok:" + request.target));
                   }};
  std::vector<std::uint64_t> fault_indices;
  server.set_fault_hook([&](std::uint64_t request_index) {
    fault_indices.push_back(request_index);
    return ServerFault{};
  });

  FrameParser frames;
  std::map<std::uint32_t, std::string> bodies;
  std::map<std::uint32_t, int> statuses;
  bool reset = false;
  TcpClient raw{net.fabric, kServerAddr,
                {.on_data =
                     [&](std::string_view bytes) {
                       frames.push(bytes);
                       while (const auto frame = frames.next()) {
                         if (frame->type == Frame::Type::kData) {
                           bodies[frame->stream_id] += frame->payload;
                           continue;
                         }
                         http::ResponseParser parser;
                         parser.push(bodies[frame->stream_id]);
                         parser.on_close();
                         ASSERT_TRUE(parser.has_message());
                         statuses[frame->stream_id] = parser.pop().status;
                       }
                     },
                 .on_reset = [&] { reset = true; }}};
  raw.connection().send(
      encode_frame({1, Frame::Type::kRequest, "garbage\r\n\r\n"}));
  raw.connection().send(encode_frame(
      {2, Frame::Type::kRequest,
       http::to_framed_bytes(http::make_get("http://10.0.0.1/fine"))}));
  net.loop.run();

  EXPECT_FALSE(reset);
  EXPECT_EQ(statuses, (std::map<std::uint32_t, int>{{1, 400}, {2, 200}}));
  EXPECT_EQ(server.requests_served(), 1u);
  // The malformed frame consumes no fault-hook index, as on HTTP/1.1.
  EXPECT_EQ(fault_indices, (std::vector<std::uint64_t>{0}));
}

TEST(Mux, GarbageBytesAbortConnection) {
  SimNet net;
  MuxServer server{net.fabric, kServerAddr, [](const http::Request&) {
                     return http::to_framed_bytes(http::make_ok("x"));
                   }};
  // Raw TCP client sending non-mux bytes.
  bool reset = false;
  TcpClient raw{net.fabric, kServerAddr,
                {.on_reset = [&] { reset = true; }}};
  std::string garbage(64, '\xFF');
  raw.connection().send(garbage);
  net.loop.run();
  EXPECT_TRUE(reset);  // server aborts on frame parse failure
}

}  // namespace
}  // namespace mahimahi::net::mux
