#include "net/event_loop.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace mahimahi::net {
namespace {

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SameTimeIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventLoop, ActionsCanScheduleMore) {
  EventLoop loop;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      loop.schedule_in(10, chain);
    }
  };
  loop.schedule_at(0, chain);
  loop.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), 40);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const auto id = loop.schedule_at(10, [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, CancelUnknownOrRunIsNoOp) {
  EventLoop loop;
  const auto id = loop.schedule_at(1, [] {});
  loop.run();
  loop.cancel(id);      // already ran
  loop.cancel(999999);  // never existed
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, CancelFromWithinAction) {
  EventLoop loop;
  bool second_ran = false;
  EventLoop::EventId second = 0;
  loop.schedule_at(10, [&] { loop.cancel(second); });
  second = loop.schedule_at(20, [&] { second_ran = true; });
  loop.run();
  EXPECT_FALSE(second_ran);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.schedule_at(30, [&] { order.push_back(3); });
  EXPECT_EQ(loop.run_until(20), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(EventLoop, RunUntilAdvancesClockWhenIdle) {
  EventLoop loop;
  loop.run_until(1000);
  EXPECT_EQ(loop.now(), 1000);
  EXPECT_TRUE(loop.idle());
}

TEST(EventLoop, SchedulingIntoThePastThrows) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run();
  EXPECT_THROW(loop.schedule_at(50, [] {}), InternalError);
  EXPECT_THROW(loop.schedule_in(-1, [] {}), InternalError);
}

TEST(EventLoop, EventLimitGuardsRunaway) {
  EventLoop loop;
  loop.set_event_limit(100);
  std::function<void()> forever = [&] { loop.schedule_in(1, forever); };
  loop.schedule_at(0, forever);
  EXPECT_THROW(loop.run(), std::runtime_error);
}

TEST(EventLoop, PendingEventsTracksCancellations) {
  EventLoop loop;
  const auto a = loop.schedule_at(10, [] {});
  loop.schedule_at(20, [] {});
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.cancel(a);  // double cancel is a no-op
  EXPECT_EQ(loop.pending_events(), 1u);
}

// --- lazy-cancellation / slot-reuse edge cases -------------------------------

TEST(EventLoop, CancelDuringDispatchOfSameTimestamp) {
  // The first event at t=10 cancels the second event at the same time —
  // the tombstone is discarded mid-dispatch without disturbing FIFO order.
  EventLoop loop;
  std::vector<int> order;
  EventLoop::EventId doomed = 0;
  loop.schedule_at(10, [&] {
    order.push_back(1);
    loop.cancel(doomed);
  });
  doomed = loop.schedule_at(10, [&] { order.push_back(2); });
  loop.schedule_at(10, [&] { order.push_back(3); });
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventLoop, CancelOwnIdFromInsideCallbackIsNoOp) {
  EventLoop loop;
  EventLoop::EventId self = 0;
  int runs = 0;
  self = loop.schedule_at(5, [&] {
    ++runs;
    loop.cancel(self);  // already dispatching: must be a no-op
  });
  loop.schedule_at(6, [&] { ++runs; });
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(runs, 2);
}

TEST(EventLoop, CancelOfAlreadyRunIdDoesNotKillSlotReuser) {
  // After an event runs, its arena slot is recycled. A stale cancel with
  // the old id must not touch whichever event now occupies the slot.
  EventLoop loop;
  const auto stale = loop.schedule_at(1, [] {});
  loop.run();
  bool second_ran = false;
  loop.schedule_at(2, [&] { second_ran = true; });  // likely reuses the slot
  loop.cancel(stale);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.run();
  EXPECT_TRUE(second_ran);
}

TEST(EventLoop, CancelOfCancelledIdDoesNotKillSlotReuser) {
  EventLoop loop;
  const auto cancelled = loop.schedule_at(10, [] {});
  loop.cancel(cancelled);
  loop.run();  // drains the tombstone, freeing the slot
  bool ran = false;
  loop.schedule_at(20, [&] { ran = true; });
  loop.cancel(cancelled);  // stale id, generation mismatch
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, RescheduleInsideCallback) {
  // The arm/disarm pattern from inside a callback: cancel the pending
  // timer and schedule a replacement, repeatedly.
  EventLoop loop;
  int timer_fired = 0;
  int steps = 0;
  EventLoop::EventId timer = 0;
  std::function<void()> step = [&] {
    loop.cancel(timer);
    timer = loop.schedule_in(100, [&] { ++timer_fired; });
    if (++steps < 10) {
      loop.schedule_in(1, step);
    }
  };
  loop.schedule_at(0, step);
  loop.run();
  EXPECT_EQ(steps, 10);
  EXPECT_EQ(timer_fired, 1);  // only the last rearm survives
  EXPECT_EQ(loop.now(), 9 + 100);
}

TEST(EventLoop, RunUntilLandingBetweenTombstones) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(10, [&] { order.push_back(10); });
  const auto t20 = loop.schedule_at(20, [&] { order.push_back(20); });
  const auto t25 = loop.schedule_at(25, [&] { order.push_back(25); });
  loop.schedule_at(30, [&] { order.push_back(30); });
  loop.cancel(t20);
  loop.cancel(t25);
  // Deadline lands between the two tombstones: only t=10 runs, the dead
  // entries at 20/25 must not block or execute, and time advances exactly
  // to the deadline.
  EXPECT_EQ(loop.run_until(22), 1u);
  EXPECT_EQ(order, (std::vector<int>{10}));
  EXPECT_EQ(loop.now(), 22);
  EXPECT_EQ(loop.pending_events(), 1u);
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{10, 30}));
}

TEST(EventLoop, CallbackLargerThanInlineBufferStillRuns) {
  // Captures beyond the inline capacity take the heap-boxed fallback;
  // behaviour (ordering, cancel) is identical.
  struct Big {
    std::array<char, EventLoop::kInlineActionBytes + 64> blob{};
  };
  static_assert(!EventLoop::Action::kFitsInline<decltype([b = Big{}] { (void)b; })>);
  EventLoop loop;
  int sum = 0;
  Big big;
  big.blob[0] = 7;
  loop.schedule_at(10, [big, &sum] { sum += big.blob[0]; });
  const auto doomed = loop.schedule_at(11, [big, &sum] { sum += 100; });
  loop.cancel(doomed);
  loop.run();
  EXPECT_EQ(sum, 7);
}

TEST(EventLoop, CancelStormOnMidDispatchTeardown) {
  // The resilience layer's teardown shape: a page finishing (or a session
  // dying) cancels every armed deadline timer at once, from inside a
  // callback, while some of those timers share the current timestamp.
  // None may fire afterwards, and the arena must recycle cleanly.
  EventLoop loop;
  struct Owner {
    EventLoop& loop;
    std::vector<EventLoop::EventId> deadlines;
    int fired{0};

    void arm(Microseconds at) {
      deadlines.push_back(loop.schedule_at(at, [this] { ++fired; }));
    }
    void teardown() {
      for (const auto id : deadlines) {
        loop.cancel(id);
      }
      deadlines.clear();
    }
  };
  Owner owner{loop};
  // The "page done" event is scheduled first, so FIFO order within t=100
  // dispatches it ahead of every same-timestamp deadline: the teardown
  // happens mid-dispatch with the whole cluster still pending.
  loop.schedule_at(100, [&] { owner.teardown(); });
  for (int i = 0; i < 300; ++i) {
    owner.arm(100 + (i % 7));  // clustered timestamps, many at t=100
  }
  loop.run();
  EXPECT_EQ(owner.fired, 0);  // teardown beat every deadline to the punch
  EXPECT_TRUE(owner.deadlines.empty());

  // The storm of tombstones must not poison later use: re-arm after the
  // teardown, on recycled slots, and fire normally.
  for (int i = 0; i < 50; ++i) {
    owner.arm(loop.now() + 10);
  }
  loop.run();
  EXPECT_EQ(owner.fired, 50);
}

TEST(EventLoop, RepeatedArmTeardownCyclesStayBalanced) {
  // Retry/backoff churn: arm a deadline, cancel it on "response", arm the
  // next — thousands of times. pending_events() must return to zero and
  // no stale timer may outlive its cycle.
  EventLoop loop;
  int stale_fires = 0;
  for (int cycle = 0; cycle < 2000; ++cycle) {
    const auto deadline =
        loop.schedule_at(loop.now() + 500, [&] { ++stale_fires; });
    loop.schedule_at(loop.now() + 1, [] {});  // the "response" arrives
    loop.cancel(deadline);
    loop.run();
  }
  EXPECT_EQ(stale_fires, 0);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, HeapGrowthStressKeepsDeterministicOrder) {
  // Interleaved scheduling and cancellation across a growing heap and
  // arena: surviving events must run in exact (time, schedule-order).
  EventLoop loop;
  std::vector<std::pair<Microseconds, int>> executed;
  std::vector<EventLoop::EventId> ids;
  int seq = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 50; ++i) {
      const Microseconds at = (i * 37 + round * 11) % 97;  // colliding times
      const int tag = seq++;
      ids.push_back(loop.schedule_at(at, [&executed, at, tag] {
        executed.emplace_back(at, tag);
      }));
    }
    for (std::size_t i = round % 3; i < ids.size(); i += 3) {
      loop.cancel(ids[i]);  // repeated cancels of the same ids: no-ops
    }
  }
  loop.run();
  ASSERT_FALSE(executed.empty());
  for (std::size_t i = 1; i < executed.size(); ++i) {
    const bool ordered =
        executed[i - 1].first < executed[i].first ||
        (executed[i - 1].first == executed[i].first &&
         executed[i - 1].second < executed[i].second);
    ASSERT_TRUE(ordered) << "event " << i << " out of order";
  }
}

TEST(EventLoop, RearmLaterDefersInPlaceAndKeepsTheId) {
  EventLoop loop;
  std::vector<int> order;
  EventLoop::EventId timer = loop.schedule_at(10, [&] { order.push_back(0); });
  loop.schedule_at(15, [&] { order.push_back(1); });
  const EventLoop::EventId before = timer;
  loop.rearm(timer, 20, [&] { order.push_back(2); });
  EXPECT_EQ(timer, before);
  EXPECT_EQ(loop.pending_events(), 2u);
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // the old callback is gone
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.counters().rearmed, 1u);
  EXPECT_EQ(loop.counters().cancelled, 0u);
}

TEST(EventLoop, RearmToTheSameTimeRunsAfterEventsScheduledBefore) {
  // A re-arm takes a fresh sequence number, exactly as schedule_at would:
  // same-time events scheduled before the re-arm run first.
  EventLoop loop;
  std::vector<int> order;
  EventLoop::EventId timer = loop.schedule_at(10, [&] { order.push_back(0); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.rearm(timer, 10, [&] { order.push_back(2); });
  loop.schedule_at(10, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, RearmEarlierFallsBackToCancelAndSchedule) {
  EventLoop loop;
  std::vector<Microseconds> fired;
  EventLoop::EventId timer = loop.schedule_at(50, [&] { fired.push_back(-1); });
  loop.run_until(0);  // the entry is in the heap under (50, seq)
  const EventLoop::EventId before = timer;
  loop.rearm(timer, 20, [&] { fired.push_back(loop.now()); });
  EXPECT_NE(timer, before);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.run();
  EXPECT_EQ(fired, (std::vector<Microseconds>{20}));
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.counters().rearmed, 0u);
  EXPECT_EQ(loop.counters().cancelled, 1u);
}

TEST(EventLoop, RearmOfARunOrCancelledIdSchedulesFresh) {
  EventLoop loop;
  int runs = 0;
  EventLoop::EventId ran = loop.schedule_at(1, [&] { ++runs; });
  loop.run();
  loop.rearm(ran, 5, [&] { ++runs; });
  EventLoop::EventId cancelled = loop.schedule_at(3, [&] { runs += 100; });
  loop.cancel(cancelled);
  loop.rearm(cancelled, 4, [&] { ++runs; });
  EXPECT_EQ(loop.pending_events(), 2u);
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(loop.counters().rearmed, 0u);
}

TEST(EventLoop, RearmOwnIdFromInsideCallbackSchedulesFresh) {
  // The dispatched event's id is already dead: re-arming it from its own
  // callback is a new event, like TCP re-arming after an RTO.
  EventLoop loop;
  std::vector<Microseconds> fired;
  EventLoop::EventId timer = 0;
  std::function<void()> tick = [&] {
    fired.push_back(loop.now());
    if (fired.size() < 3) {
      loop.rearm(timer, loop.now() + 7, tick);
    }
  };
  loop.rearm(timer, 7, tick);
  loop.run();
  EXPECT_EQ(fired, (std::vector<Microseconds>{7, 14, 21}));
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, RunUntilNeverDispatchesADeferredEntryPastTheDeadline) {
  // The deferred entry sits at the heap top under its queued time (10),
  // with queued time <= deadline (20) < due time (30): run_until must
  // re-key it and stop, not dispatch it.
  EventLoop loop;
  std::vector<Microseconds> fired;
  EventLoop::EventId timer = loop.schedule_at(10, [&] { fired.push_back(-1); });
  loop.schedule_at(25, [&] { fired.push_back(loop.now()); });
  loop.run_until(0);  // both entries now in the heap; the timer on top
  loop.rearm(timer, 30, [&] { fired.push_back(loop.now()); });
  EXPECT_EQ(loop.run_until(20), 0u);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.pending_events(), 2u);
  EXPECT_EQ(loop.counters().rekeyed, 1u);
  EXPECT_EQ(loop.run_until(30), 2u);
  EXPECT_EQ(fired, (std::vector<Microseconds>{25, 30}));
}

TEST(EventLoop, CountersBalance) {
  // Every published event ends dispatched, cancelled or still pending.
  EventLoop loop;
  EventLoop::EventId timer = 0;
  for (int i = 1; i <= 100; ++i) {
    loop.rearm(timer, i * 10, [] {});
    const auto doomed = loop.schedule_at(i * 10 + 5, [] {});
    loop.run_until(i * 10 - 3);
    if (i % 3 == 0) {
      loop.cancel(doomed);  // in the heap by now: a tombstone
    }
  }
  const EventLoop::Counters& c = loop.counters();
  EXPECT_EQ(c.scheduled, c.dispatched + c.cancelled + loop.pending_events());
  EXPECT_GT(c.rearmed, 0u);
  EXPECT_GT(c.tombstones, 0u);
}

/// Drives one loop through a seeded random mix of schedule, cancel,
/// re-arm and run_until calls, made from the test body and from inside
/// callbacks. With `in_place` the re-arms go through EventLoop::rearm;
/// otherwise through the explicit cancel + schedule_at they must equal.
/// Deadlines fall in [now, now + 20), so re-arms land later than, equal
/// to and earlier than the pending entry, with many same-time ties.
class TimerScript {
 public:
  TimerScript(bool in_place, std::uint64_t seed)
      : in_place_{in_place}, rng_{seed} {}

  /// One top-level call; returns what a run_until dispatched (0 if none).
  std::size_t step() {
    if (draw(5) == 0) {
      return loop.run_until(loop.now() + static_cast<Microseconds>(draw(25)));
    }
    act();
    return 0;
  }

  EventLoop loop;
  std::vector<std::pair<Microseconds, int>> log;  // (now, tag) per dispatch
  std::uint64_t arms{0};
  std::uint64_t earlier{0};  // in-place mode: re-arms that fell back ...
  std::uint64_t dead{0};     // ... for each of the two reasons

 private:
  static constexpr std::size_t kHandles = 6;

  struct Fire {
    TimerScript* script;
    std::size_t handle;
    int tag;
    void operator()() const { script->fired(handle, tag); }
  };

  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }
  Microseconds deadline() {
    return loop.now() + static_cast<Microseconds>(draw(20));
  }

  void act() {
    const std::size_t k = draw(kHandles);
    switch (draw(4)) {
      case 0: {
        const Microseconds at = deadline();
        ids_[k] = loop.schedule_at(at, callback(k));
        break;
      }
      case 1:
        loop.cancel(ids_[k]);  // often an id that already ran
        break;
      default:
        arm(k, deadline());
        break;
    }
  }

  void arm(std::size_t k, Microseconds at) {
    ++arms;
    if (in_place_) {
      const std::uint64_t cancels = loop.counters().cancelled;
      const EventLoop::EventId id = ids_[k];
      loop.rearm(ids_[k], at, callback(k));
      if (loop.counters().cancelled != cancels) {
        ++earlier;  // pending, but queued later than `at`
      } else if (ids_[k] != id) {
        ++dead;  // the id already ran or was cancelled
      }
    } else {
      loop.cancel(ids_[k]);
      ids_[k] = loop.schedule_at(at, callback(k));
    }
  }

  Fire callback(std::size_t k) { return Fire{this, k, next_tag_++}; }

  void fired(std::size_t k, int tag) {
    log.emplace_back(loop.now(), tag);
    switch (draw(6)) {
      case 0:
        arm(k, deadline());  // its own handle: the id just ran
        break;
      case 1:
        act();
        break;
      default:
        break;
    }
  }

  bool in_place_;
  std::mt19937_64 rng_;
  std::array<EventLoop::EventId, kHandles> ids_{};
  int next_tag_{0};
};

TEST(EventLoop, RearmMatchesCancelAndScheduleOnRandomScripts) {
  std::uint64_t in_place = 0;
  std::uint64_t earlier = 0;
  std::uint64_t dead = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    TimerScript lazy{true, seed};
    TimerScript eager{false, seed};
    for (int i = 0; i < 300; ++i) {
      ASSERT_EQ(lazy.step(), eager.step()) << "seed " << seed << " step " << i;
      ASSERT_EQ(lazy.log, eager.log) << "seed " << seed << " step " << i;
      ASSERT_EQ(lazy.loop.pending_events(), eager.loop.pending_events())
          << "seed " << seed << " step " << i;
      ASSERT_EQ(lazy.loop.now(), eager.loop.now());
    }
    ASSERT_EQ(lazy.loop.run(), eager.loop.run()) << "seed " << seed;
    ASSERT_EQ(lazy.log, eager.log) << "seed " << seed;
    ASSERT_EQ(lazy.loop.now(), eager.loop.now()) << "seed " << seed;
    ASSERT_EQ(lazy.arms, eager.arms);

    // Each in-place re-arm is one schedule the explicit path made.
    const EventLoop::Counters& l = lazy.loop.counters();
    const EventLoop::Counters& e = eager.loop.counters();
    EXPECT_EQ(l.scheduled + l.rearmed, e.scheduled);
    EXPECT_EQ(l.dispatched, e.dispatched);
    EXPECT_EQ(e.rearmed, 0u);
    EXPECT_EQ(l.rearmed + lazy.earlier + lazy.dead, lazy.arms);
    in_place += l.rearmed;
    earlier += lazy.earlier;
    dead += lazy.dead;
  }
  // Every path of rearm() ran, many times over.
  EXPECT_GT(in_place, 1000u);
  EXPECT_GT(earlier, 1000u);
  EXPECT_GT(dead, 1000u);
}

// --- PacketChannel ----------------------------------------------------------

Packet tagged(std::uint64_t tag) {
  Packet p;
  p.id = tag;
  return p;
}

TEST(PacketChannel, ReleasesInPushOrderInterleavedWithEvents) {
  EventLoop loop;
  std::vector<std::pair<Microseconds, std::uint64_t>> log;
  PacketChannel channel{loop, [&](Packet&& p) { log.emplace_back(loop.now(), p.id); }};
  channel.push(10, tagged(1));
  loop.schedule_at(10, [&] { log.emplace_back(loop.now(), 2); });
  channel.push(10, tagged(3));
  channel.push(20, tagged(4));
  EXPECT_EQ(loop.pending_events(), 4u);
  EXPECT_EQ(loop.run(), 4u);
  using Log = std::vector<std::pair<Microseconds, std::uint64_t>>;
  EXPECT_EQ(log, (Log{{10, 1}, {10, 2}, {10, 3}, {20, 4}}));
  EXPECT_TRUE(loop.idle());
}

TEST(PacketChannel, SinkMayPushOntoItsOwnChannel) {
  EventLoop loop;
  std::vector<Microseconds> times;
  std::unique_ptr<PacketChannel> channel;
  channel = std::make_unique<PacketChannel>(loop, [&](Packet&& p) {
    times.push_back(loop.now());
    if (p.id < 5) {
      p.id += 1;
      channel->push(loop.now() + 10, std::move(p));
      channel->push(loop.now() + 10, tagged(100));  // ties the re-push
    }
  });
  channel->push(0, tagged(1));
  EXPECT_EQ(loop.run(), 9u);
  EXPECT_EQ(times, (std::vector<Microseconds>{0, 10, 10, 20, 20, 30, 30, 40, 40}));
  EXPECT_EQ(loop.counters().scheduled, 9u);
  EXPECT_EQ(loop.counters().dispatched, 9u);
}

TEST(PacketChannel, RunUntilReleasesAHeadAtTheDeadlineButNotPastIt) {
  EventLoop loop;
  std::vector<std::uint64_t> released;
  PacketChannel channel{loop, [&](Packet&& p) { released.push_back(p.id); }};
  channel.push(100, tagged(1));
  channel.push(101, tagged(2));
  EXPECT_EQ(loop.run_until(100), 1u);
  EXPECT_EQ(released, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(loop.now(), 100);
  EXPECT_EQ(loop.pending_events(), 1u);
  EXPECT_EQ(loop.run_until(100), 0u);
  EXPECT_EQ(loop.run_until(101), 1u);
  EXPECT_EQ(released, (std::vector<std::uint64_t>{1, 2}));
}

TEST(PacketChannel, EventLimitCountsChannelReleases) {
  EventLoop loop;
  loop.set_event_limit(50);
  std::unique_ptr<PacketChannel> channel;
  channel = std::make_unique<PacketChannel>(loop, [&](Packet&& p) {
    channel->push(loop.now() + 1, std::move(p));  // forever
  });
  channel->push(0, tagged(1));
  EXPECT_THROW(loop.run(), std::runtime_error);
  EXPECT_EQ(loop.counters().dispatched, 51u);
}

TEST(PacketChannel, NextItemStillReleasesAfterASinkThrows) {
  EventLoop loop;
  std::vector<std::uint64_t> released;
  PacketChannel channel{loop, [&](Packet&& p) {
    if (p.id == 1) {
      throw std::runtime_error{"sink failure"};
    }
    released.push_back(p.id);
  }};
  channel.push(5, tagged(1));
  channel.push(5, tagged(2));
  channel.push(7, tagged(3));
  EXPECT_THROW(loop.run(), std::runtime_error);
  EXPECT_EQ(loop.pending_events(), 2u);
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(released, (std::vector<std::uint64_t>{2, 3}));
  const EventLoop::Counters& c = loop.counters();
  EXPECT_EQ(c.scheduled, c.dispatched + c.cancelled + loop.pending_events());
}

TEST(PacketChannel, DestroyedChannelDropsItsPacketsAndIsNeverTouched) {
  EventLoop loop;
  int timers = 0;
  std::vector<std::uint64_t> released;
  auto channel = std::make_unique<PacketChannel>(
      loop, [&](Packet&& p) { released.push_back(p.id); });
  // One channel dies with its entry still in the inbox, one after its
  // entry reached the heap.
  auto fresh = std::make_unique<PacketChannel>(loop, [](Packet&&) { FAIL(); });
  fresh->push(50, tagged(9));
  fresh.reset();
  channel->push(10, tagged(1));
  channel->push(20, tagged(2));
  channel->push(30, tagged(3));
  loop.schedule_at(40, [&] { ++timers; });
  EXPECT_EQ(loop.run_until(10), 1u);
  EXPECT_EQ(loop.pending_events(), 3u);
  channel.reset();
  EXPECT_EQ(loop.pending_events(), 1u);
  PacketChannel next{loop, [&](Packet&& p) { released.push_back(p.id); }};
  next.push(25, tagged(4));
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(released, (std::vector<std::uint64_t>{1, 4}));
  EXPECT_EQ(timers, 1);
  const EventLoop::Counters& c = loop.counters();
  EXPECT_EQ(c.cancelled, 3u);
  EXPECT_EQ(c.tombstones, 1u);  // the heap entry; the inbox one never got there
  EXPECT_EQ(c.scheduled, c.dispatched + c.cancelled + loop.pending_events());
}

TEST(PacketChannel, ChannelMayOutliveItsLoop) {
  auto loop = std::make_unique<EventLoop>();
  PacketChannel channel{*loop, [](Packet&&) {}};
  channel.push(10, tagged(1));
  loop.reset();
  EXPECT_THROW(channel.push(20, tagged(2)), InternalError);
}

TEST(PacketChannel, PushOutOfOrderOrIntoThePastThrows) {
  EventLoop loop;
  PacketChannel channel{loop, [](Packet&&) {}};
  channel.push(100, tagged(1));
  EXPECT_THROW(channel.push(50, tagged(2)), InternalError);
  channel.push(100, tagged(3));  // a tie is in order
  loop.run();
  EXPECT_THROW(channel.push(99, tagged(4)), InternalError);
  EXPECT_EQ(loop.counters().scheduled, 2u);
}

TEST(PacketChannel, RingGrowthKeepsOrderAcrossTheWrap) {
  EventLoop loop;
  std::vector<std::uint64_t> released;
  PacketChannel channel{loop, [&](Packet&& p) { released.push_back(p.id); }};
  std::uint64_t next = 0;
  for (int round = 0; round < 6; ++round) {
    // Push more than are released each round, so the ring wraps and grows
    // with items in flight.
    for (int i = 0; i < 3 + round; ++i) {
      channel.push(loop.now() + 1 + round, tagged(next++));
    }
    loop.run_until(loop.now() + 1 + round);
  }
  loop.run();
  std::vector<std::uint64_t> expected(next);
  for (std::uint64_t i = 0; i < next; ++i) {
    expected[i] = i;
  }
  EXPECT_EQ(released, expected);
}

/// Drives one loop through a seeded random mix of packet pushes onto
/// several monotone streams, plain timers, cancels, re-arms and run_until
/// calls, made from the test body and from inside callbacks and sinks.
/// With `channels` each stream is a PacketChannel; otherwise each packet
/// is its own schedule_at event, which the channel must equal.
class ChannelScript {
 public:
  ChannelScript(bool channels, std::uint64_t seed) : rng_{seed} {
    if (channels) {
      for (std::size_t k = 0; k < kStreams; ++k) {
        channels_[k] = std::make_unique<PacketChannel>(
            loop, [this, k](Packet&& p) { released(k, std::move(p)); });
      }
    }
  }

  std::size_t step() {
    if (draw(5) == 0) {
      return loop.run_until(loop.now() + static_cast<Microseconds>(draw(25)));
    }
    act();
    return 0;
  }

  EventLoop loop;
  std::vector<std::pair<Microseconds, std::uint64_t>> log;  // (now, tag)
  std::uint64_t pushes{0};

 private:
  static constexpr std::size_t kStreams = 3;
  static constexpr std::size_t kHandles = 4;

  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }

  void act() {
    const std::size_t k = draw(kHandles);
    switch (draw(6)) {
      case 0:
      case 1:
        push(draw(kStreams));
        break;
      case 2:
        ids_[k] = loop.schedule_at(
            loop.now() + static_cast<Microseconds>(draw(20)), timer());
        break;
      case 3:
        loop.cancel(ids_[k]);
        break;
      default:
        loop.rearm(ids_[k], loop.now() + static_cast<Microseconds>(draw(20)),
                   timer());
        break;
    }
  }

  /// A stream's release times are monotone: a FIFO server whose next
  /// release is no earlier than its last (ties are common).
  void push(std::size_t k) {
    ++pushes;
    const Microseconds at = std::max(loop.now(), last_at_[k]) +
                            static_cast<Microseconds>(draw(8));
    last_at_[k] = at;
    Packet packet;
    packet.id = next_tag_++;
    if (channels_[k] != nullptr) {
      channels_[k]->push(at, std::move(packet));
    } else {
      loop.schedule_at(at, [this, k, p = std::move(packet)]() mutable {
        released(k, std::move(p));
      });
    }
  }

  std::function<void()> timer() {
    return [this, tag = next_tag_++] {
      log.emplace_back(loop.now(), tag);
      if (draw(4) == 0) {
        act();
      }
    };
  }

  void released(std::size_t k, Packet&& packet) {
    log.emplace_back(loop.now(), packet.id);
    switch (draw(5)) {
      case 0:
        push(k);  // its own stream, from inside the sink
        break;
      case 1:
        act();
        break;
      default:
        break;
    }
  }

  std::mt19937_64 rng_;
  std::array<std::unique_ptr<PacketChannel>, kStreams> channels_{};
  std::array<Microseconds, kStreams> last_at_{};
  std::array<EventLoop::EventId, kHandles> ids_{};
  std::uint64_t next_tag_{0};
};

TEST(PacketChannel, MatchesPerPacketEventsOnRandomScripts) {
  std::uint64_t pushes = 0;
  std::uint64_t channel_heap_pushes = 0;
  std::uint64_t event_heap_pushes = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    ChannelScript channel{true, seed};
    ChannelScript events{false, seed};
    for (int i = 0; i < 300; ++i) {
      ASSERT_EQ(channel.step(), events.step()) << "seed " << seed << " step " << i;
      ASSERT_EQ(channel.log, events.log) << "seed " << seed << " step " << i;
      ASSERT_EQ(channel.loop.pending_events(), events.loop.pending_events())
          << "seed " << seed << " step " << i;
      ASSERT_EQ(channel.loop.counters().scheduled, events.loop.counters().scheduled)
          << "seed " << seed << " step " << i;
      ASSERT_EQ(channel.loop.counters().dispatched,
                events.loop.counters().dispatched)
          << "seed " << seed << " step " << i;
      ASSERT_EQ(channel.loop.now(), events.loop.now());
    }
    ASSERT_EQ(channel.loop.run(), events.loop.run()) << "seed " << seed;
    ASSERT_EQ(channel.log, events.log) << "seed " << seed;
    ASSERT_EQ(channel.loop.now(), events.loop.now()) << "seed " << seed;
    ASSERT_EQ(channel.pushes, events.pushes);
    const EventLoop::Counters& c = channel.loop.counters();
    const EventLoop::Counters& e = events.loop.counters();
    EXPECT_EQ(c.scheduled, e.scheduled);
    EXPECT_EQ(c.dispatched, e.dispatched);
    EXPECT_EQ(c.cancelled, e.cancelled);
    EXPECT_EQ(c.rearmed, e.rearmed);
    // A packet queued behind its channel's head enters the heap as a
    // re-entry in place of the head, not as a push.
    EXPECT_LE(c.heap_pushes, e.heap_pushes);
    pushes += channel.pushes;
    channel_heap_pushes += c.heap_pushes;
    event_heap_pushes += e.heap_pushes;
  }
  EXPECT_GT(pushes, 10000u);
  EXPECT_LT(channel_heap_pushes, event_heap_pushes);
}

}  // namespace
}  // namespace mahimahi::net
