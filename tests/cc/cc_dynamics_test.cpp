// Controller dynamics pinned by deterministic event replay: each test
// feeds a fixed script of ack/loss/RTO/RTT events straight through the
// cc::CongestionController interface (no fabric, no transport) and checks
// the resulting cwnd trajectory. The Reno trajectory is golden — exact
// doubles, hand-computed — because RenoNewReno must be a
// behavior-preserving port of the window arithmetic that used to live in
// net::TcpConnection.

#include <gtest/gtest.h>

#include <cmath>

#include "cc/bbr_lite.hpp"
#include "cc/cubic.hpp"
#include "cc/registry.hpp"
#include "cc/reno.hpp"
#include "cc/vegas.hpp"

namespace mahimahi::cc {
namespace {

constexpr double kMss = 1448.0;

Params test_params() {
  Params params;
  params.mss_bytes = kMss;
  params.initial_cwnd_bytes = 10 * kMss;  // IW10
  return params;
}

AckEvent new_ack(std::uint64_t bytes, Microseconds now,
                 std::uint64_t in_flight = 0) {
  AckEvent ack;
  ack.newly_acked_bytes = bytes;
  ack.bytes_in_flight = in_flight;
  ack.now = now;
  return ack;
}

AckEvent dup_ack(bool in_recovery, Microseconds now) {
  AckEvent ack;
  ack.is_duplicate = true;
  ack.in_recovery = in_recovery;
  ack.now = now;
  return ack;
}

TEST(RenoGolden, ScriptedTrajectoryMatchesHandComputedWindows) {
  RenoNewReno reno{test_params()};
  EXPECT_DOUBLE_EQ(reno.cwnd_bytes(), 10 * kMss);
  EXPECT_DOUBLE_EQ(reno.ssthresh_bytes(), kInfiniteSsthresh);

  // Slow start: ten full-MSS acks double the window (ABC growth).
  Microseconds now = 1'000;
  for (int i = 0; i < 10; ++i) {
    reno.on_ack(new_ack(1448, now += 1'000));
  }
  EXPECT_DOUBLE_EQ(reno.cwnd_bytes(), 20 * kMss);  // 28960

  // Loss with 28960 bytes in flight: ssthresh = flight/2, window jumps to
  // ssthresh + 3 MSS (the three dupacks that triggered detection).
  LossEvent loss;
  loss.bytes_in_flight = 28'960;
  loss.now = now += 1'000;
  reno.on_loss_event(loss);
  EXPECT_DOUBLE_EQ(reno.ssthresh_bytes(), 14'480.0);
  EXPECT_DOUBLE_EQ(reno.cwnd_bytes(), 14'480.0 + 3 * kMss);  // 18824

  // Dupack during recovery inflates by one MSS.
  reno.on_ack(dup_ack(/*in_recovery=*/true, now += 1'000));
  EXPECT_DOUBLE_EQ(reno.cwnd_bytes(), 18'824.0 + kMss);  // 20272

  // A dupack outside recovery must not move the window.
  const double before = reno.cwnd_bytes();
  reno.on_ack(dup_ack(/*in_recovery=*/false, now += 1'000));
  EXPECT_DOUBLE_EQ(reno.cwnd_bytes(), before);

  // NewReno partial ack: deflate by acked bytes, re-inflate one MSS.
  AckEvent partial = new_ack(1448, now += 1'000);
  partial.in_recovery = true;
  reno.on_ack(partial);
  EXPECT_DOUBLE_EQ(reno.cwnd_bytes(), 20'272.0);  // -1448 + 1448

  // Full ack exits recovery at exactly ssthresh.
  AckEvent exit_ack = new_ack(2896, now += 1'000);
  exit_ack.exiting_recovery = true;
  reno.on_ack(exit_ack);
  EXPECT_DOUBLE_EQ(reno.cwnd_bytes(), 14'480.0);

  // Congestion avoidance: one ack adds MSS^2 / cwnd bytes.
  reno.on_ack(new_ack(1448, now += 1'000));
  EXPECT_DOUBLE_EQ(reno.cwnd_bytes(), 14'480.0 + kMss * kMss / 14'480.0);

  // RTO: ssthresh = flight/2, window collapses to one segment.
  RtoEvent rto;
  rto.bytes_in_flight = 14'480;
  rto.now = now += 1'000;
  reno.on_rto(rto);
  EXPECT_DOUBLE_EQ(reno.ssthresh_bytes(), 7'240.0);
  EXPECT_DOUBLE_EQ(reno.cwnd_bytes(), kMss);

  // And slow start resumes from there.
  reno.on_ack(new_ack(1448, now += 1'000));
  EXPECT_DOUBLE_EQ(reno.cwnd_bytes(), 2 * kMss);
}

TEST(RenoGolden, LossFloorsAtTwoSegments) {
  RenoNewReno reno{test_params()};
  LossEvent loss;
  loss.bytes_in_flight = 100;  // tiny flight: the /2 would undershoot
  loss.now = 1'000;
  reno.on_loss_event(loss);
  EXPECT_DOUBLE_EQ(reno.ssthresh_bytes(), 2 * kMss);
  EXPECT_DOUBLE_EQ(reno.cwnd_bytes(), 5 * kMss);
}

TEST(CubicDynamics, MultiplicativeDecreaseIsBeta) {
  Cubic cubic{test_params()};
  // Grow to 100 segments in slow start.
  for (int i = 0; i < 90; ++i) {
    cubic.on_ack(new_ack(1448, 1'000 * (i + 1)));
  }
  const double at_loss = cubic.cwnd_bytes();
  EXPECT_DOUBLE_EQ(at_loss, 100 * kMss);

  LossEvent loss;
  loss.bytes_in_flight = static_cast<std::uint64_t>(at_loss);
  loss.now = 100'000;
  cubic.on_loss_event(loss);
  EXPECT_DOUBLE_EQ(cubic.ssthresh_bytes(), at_loss * Cubic::kBeta);

  AckEvent exit_ack = new_ack(1448, 101'000);
  exit_ack.exiting_recovery = true;
  cubic.on_ack(exit_ack);
  EXPECT_DOUBLE_EQ(cubic.cwnd_bytes(), at_loss * Cubic::kBeta);
}

TEST(CubicDynamics, RegrowsToLossPointFasterThanReno) {
  // After a loss at 200 segments on a 400 ms RTT path, Reno needs
  // (200 - 140) RTTs = 24 s to re-fill the pipe; CUBIC's K is
  // cbrt(200 * 0.3 / 0.4) ~ 5.3 s. Replay identical ack clocks through
  // both and compare the time each takes to reach the old loss point.
  const double target = 200 * kMss;
  const Microseconds rtt = 400'000;

  Microseconds cubic_reached = 0;
  Microseconds reno_reached = 0;
  for (const bool use_cubic : {true, false}) {
    Params params = test_params();
    std::unique_ptr<CongestionController> controller;
    if (use_cubic) {
      controller = std::make_unique<Cubic>(params);
    } else {
      controller = std::make_unique<RenoNewReno>(params);
    }
    // Reach 200 segments in slow start, then lose.
    Microseconds now = 0;
    for (int i = 0; i < 190; ++i) {
      controller->on_ack(new_ack(1448, now += 2'000));
    }
    LossEvent loss;
    loss.bytes_in_flight = static_cast<std::uint64_t>(target);
    loss.now = now;
    controller->on_loss_event(loss);
    AckEvent exit_ack = new_ack(1448, now += 1'000);
    exit_ack.exiting_recovery = true;
    controller->on_ack(exit_ack);

    // Ack clock: one full window of acks per RTT, window-paced. Stop when
    // the controller regains the pre-loss window (or after 120 s).
    controller->on_rtt_sample(rtt, now);
    Microseconds reached = 0;
    while (reached == 0 && now < 120'000'000) {
      const int acks_this_rtt =
          std::max(1, static_cast<int>(controller->cwnd_bytes() / kMss));
      const Microseconds spacing = rtt / acks_this_rtt;
      for (int i = 0; i < acks_this_rtt; ++i) {
        controller->on_ack(new_ack(1448, now += std::max<Microseconds>(spacing, 1)));
        if (controller->cwnd_bytes() >= target) {
          reached = now;
          break;
        }
      }
      controller->on_rtt_sample(rtt, now);
    }
    ASSERT_GT(reached, 0) << (use_cubic ? "cubic" : "reno")
                          << " never regained the loss-point window";
    (use_cubic ? cubic_reached : reno_reached) = reached;
  }
  // CUBIC should re-fill the high-BDP pipe at least 2x sooner.
  EXPECT_LT(cubic_reached * 2, reno_reached)
      << "cubic " << cubic_reached << " us vs reno " << reno_reached << " us";
}

TEST(VegasDynamics, ExitsSlowStartWhenQueueBuildsAndHoldsNearBdp) {
  Vegas vegas{test_params()};
  Microseconds now = 0;

  // Propagation delay 100 ms.
  vegas.on_rtt_sample(100'000, now);
  EXPECT_EQ(vegas.base_rtt(), 100'000);

  // RTT inflating to 150 ms: backlog = cwnd * 50/150 >> gamma, so slow
  // start must end without a loss, on a window near cwnd * base/rtt.
  for (int i = 0; i < 40 && vegas.ssthresh_bytes() == kInfiniteSsthresh; ++i) {
    now += 25'000;
    vegas.on_rtt_sample(150'000, now);
    vegas.on_ack(new_ack(1448, now));
  }
  EXPECT_LT(vegas.ssthresh_bytes(), kInfiniteSsthresh)
      << "slow start never exited despite standing queue";
  const double after_exit = vegas.cwnd_bytes();
  EXPECT_LE(after_exit, 12 * kMss);  // no blow-up past IW10 + trim margin

  // With RTT back at base (queue drained), Vegas probes gently upward...
  for (int i = 0; i < 40; ++i) {
    now += 50'000;
    vegas.on_rtt_sample(101'000, now);
    vegas.on_ack(new_ack(1448, now));
  }
  EXPECT_GT(vegas.cwnd_bytes(), after_exit);

  // ...and backs off when the queue reappears (RTT 2x base).
  const double before_queue = vegas.cwnd_bytes();
  for (int i = 0; i < 40; ++i) {
    now += 50'000;
    vegas.on_rtt_sample(200'000, now);
    vegas.on_ack(new_ack(1448, now));
  }
  EXPECT_LT(vegas.cwnd_bytes(), before_queue);
  EXPECT_GE(vegas.cwnd_bytes(), 2 * kMss);
}

TEST(BbrLiteDynamics, PhasesAdvanceAndModelTracksPath) {
  BbrLite bbr{test_params()};
  EXPECT_EQ(bbr.phase(), BbrLite::Phase::kStartup);
  EXPECT_DOUBLE_EQ(bbr.pacing_rate(), 0.0);  // no estimate yet: unpaced

  // Path: 50 ms RTT, ~290 kB/s of acked data (20 MSS per RTT).
  const Microseconds rtt = 50'000;
  Microseconds now = 0;
  const auto run_epochs = [&](int epochs, std::uint64_t in_flight) {
    for (int e = 0; e < epochs; ++e) {
      bbr.on_rtt_sample(rtt, now);
      for (int i = 0; i < 20; ++i) {
        now += rtt / 20;
        bbr.on_ack(new_ack(1448, now, in_flight));
      }
    }
  };

  run_epochs(1, 100'000);
  EXPECT_GT(bbr.pacing_rate(), 0.0);  // handshake sample seeded the filter
  EXPECT_EQ(bbr.min_rtt(), rtt);

  // Delivery rate stays flat, so startup detects the plateau and drains.
  run_epochs(8, 100'000);
  EXPECT_NE(bbr.phase(), BbrLite::Phase::kStartup);

  // Once inflight falls to the BDP, steady-state probing begins.
  run_epochs(4, 1'000);
  EXPECT_EQ(bbr.phase(), BbrLite::Phase::kProbeBw);

  // The model should track the true delivery rate (~289.6 kB/s) within
  // the probe gain's swing, and the cwnd cap should sit near 2x BDP.
  const double true_rate = 20 * 1448.0 / 0.05;
  EXPECT_GT(bbr.bandwidth_estimate(), true_rate * 0.7);
  EXPECT_LT(bbr.bandwidth_estimate(), true_rate * 1.6);
  const double bdp = bbr.bandwidth_estimate() * 0.05;
  EXPECT_NEAR(bbr.cwnd_bytes(), BbrLite::kCwndGain * bdp, 4 * kMss);

  // Loss must not crater the rate (BBR ignores it as a primary signal).
  const double rate_before = bbr.pacing_rate();
  LossEvent loss;
  loss.bytes_in_flight = 50'000;
  loss.now = now;
  bbr.on_loss_event(loss);
  EXPECT_DOUBLE_EQ(bbr.pacing_rate(), rate_before);

  // RTO collapses the window to one segment until delivery resumes.
  RtoEvent rto;
  rto.bytes_in_flight = 50'000;
  rto.now = now;
  bbr.on_rto(rto);
  EXPECT_DOUBLE_EQ(bbr.cwnd_bytes(), kMss);
  bbr.on_ack(new_ack(1448, now += 1'000, 1'448));
  EXPECT_GT(bbr.cwnd_bytes(), kMss);
}

TEST(Registry, BuiltInsResolveAndReportTheirNames) {
  const auto names = registered_controllers();
  ASSERT_GE(names.size(), 4u);
  for (const char* expected : {"bbr", "cubic", "reno", "vegas"}) {
    EXPECT_TRUE(is_registered(expected)) << expected;
    const auto controller = make_controller(expected, test_params());
    EXPECT_EQ(controller->name(), expected);
    EXPECT_DOUBLE_EQ(controller->cwnd_bytes(), 10 * kMss);
  }
  // Empty name = default (reno).
  EXPECT_EQ(make_controller("", test_params())->name(), "reno");
}

TEST(Registry, UnknownNameThrowsListingRegistered) {
  try {
    make_controller("warp-speed", test_params());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("warp-speed"), std::string::npos);
    EXPECT_NE(message.find("reno"), std::string::npos);
  }
}

}  // namespace
}  // namespace mahimahi::cc
