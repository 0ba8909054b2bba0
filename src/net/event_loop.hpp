#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "util/assert.hpp"
#include "util/inline_function.hpp"
#include "util/time.hpp"

namespace mahimahi::net {

class PacketChannel;

/// Discrete-event scheduler with a virtual clock.
///
/// Determinism: events at the same timestamp run in scheduling order
/// (monotonic sequence number tie-break), so a simulation is a pure
/// function of its inputs and seeds — the property the whole toolkit's
/// "reproducible measurement" claim rests on.
///
/// Hot-path design: the pending set is a flat 4-ary min-heap of 24-byte
/// POD keys ordered by (time, sequence), fed through an unsorted inbox —
/// newly scheduled events pay for heap insertion only at the next
/// dispatch, so an event cancelled before then (the dominant fate of
/// batch-armed timers) never touches the heap. Callbacks live in a
/// chunked slot arena with stable addresses — growth never moves a
/// callable, and dispatch invokes in place. Cancellation is lazy:
/// cancel() bumps the slot's generation (destroying the callback
/// immediately to release captured resources) and the dead entry is
/// discarded when it surfaces. EventIds encode (slot, generation), so cancelling an
/// already-run or reused id is a safe no-op. With callbacks that fit the
/// inline buffer, a schedule/run cycle performs zero heap allocations once
/// the arena is warm.
///
/// Lazy re-arm: rearm() moves a pending timer to a later deadline without
/// touching the heap. Each slot stores its event's *due key* (at, seq);
/// a re-arm takes the next sequence number exactly as schedule_at would
/// and writes it there, while the queued heap/inbox entry keeps its old,
/// earlier key. When that entry surfaces — where tombstones are dropped —
/// it is re-pushed under the due key, so the head the dispatch loop and
/// run_until's deadline see is always a due key, and events run in
/// exactly the (at, seq) order cancel + schedule_at would have produced.
/// A deadline earlier than the queued entry falls back to cancel +
/// schedule_at. Invariant, checked at every dispatch: the entry's key
/// equals its slot's due key, and now() never goes backwards.
///
/// Packet channels: packets in flight do not take slots. A PacketChannel
/// (below) is a timed FIFO whose release times are monotone — a delay
/// line, a per-origin propagation lane. Each push takes the next sequence
/// number exactly as schedule_at would, but only the channel's head sits
/// in the heap; after the head dispatches, the channel re-enters under its
/// next item's key. Every key behind a channel's head is later than the
/// head, so the global (at, seq) dispatch order is the one per-packet
/// events would produce, at one heap entry per channel.
class EventLoop {
 public:
  using EventId = std::uint64_t;

  EventLoop() = default;
  /// Detaches every live PacketChannel: a channel that outlives its loop
  /// never touches it again.
  ~EventLoop();
  // Channels point back at the loop, so it is neither copied nor moved.
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Inline capacity of the callback type. Packets in flight travel in
  /// PacketChannels, so the callers are timers and per-object application
  /// events. Timers, DNS timeouts and origin think time capture at most
  /// 56 bytes (LP64 libstdc++); the browser's per-object events hold
  /// their fetch by pointer and fit too (its compute, deadline and
  /// request-send events static_assert it). Larger callables still work;
  /// they heap-allocate.
  static constexpr std::size_t kInlineActionBytes = 168;
  using Action = util::InlineCallback<kInlineActionBytes>;

  [[nodiscard]] Microseconds now() const { return now_; }

  /// Schedule a callable at absolute time `at` (>= now). Returns an id
  /// usable with cancel(); ids are never zero. The callable is constructed
  /// directly in its arena slot — no temporary, no move.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, Action> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventId schedule_at(Microseconds at, F&& f) {
    check_action(f);
    MAHI_ASSERT_MSG(at >= now_, "scheduling into the past: " << at << " < " << now_);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_at(slot);
    // Fill the slot before publishing the heap entry: if the callable's
    // constructor throws, no event is visible to the dispatch loop (the
    // slot sits out until the loop is destroyed — benign, never UB).
    s.action.emplace(std::forward<F>(f));
    publish_event(at, slot);
    return make_id(slot, s.generation);
  }

  /// Schedule an already-type-erased Action (moved into the slot).
  EventId schedule_at(Microseconds at, Action action);

  /// Schedule after a relative delay (>= 0).
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, Action> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventId schedule_in(Microseconds delay, F&& f) {
    check_delay(delay);
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  EventId schedule_in(Microseconds delay, Action action);

  /// Move the event `id` names to absolute time `at` (>= now) with
  /// callable `f`: the same dispatch order, callback and pending count as
  /// `cancel(id); id = schedule_at(at, f);`. A pending event whose queued
  /// entry is not later than `at` is deferred in place (its id stays);
  /// an earlier deadline, or an id that already ran or was cancelled,
  /// takes the cancel + schedule_at path and updates `id`.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, Action> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  void rearm(EventId& id, Microseconds at, F&& f) {
    Slot* s = pending_slot(id);
    if (s == nullptr || at < s->queued_at) {
      cancel(id);
      id = schedule_at(at, std::forward<F>(f));
      return;
    }
    check_action(f);  // at >= queued_at >= now: not in the past
    try {
      s->action.emplace(std::forward<F>(f));
    } catch (...) {
      cancel(id);  // as cancel + a schedule_at that threw
      throw;
    }
    s->due_at = at;
    s->due_seq = next_seq_++;
    ++counters_.rearmed;
  }

  /// Cancel a pending event. Cancelling an already-run or unknown id is a
  /// no-op (timers race with the events that would cancel them).
  void cancel(EventId id);

  /// Run until the queue is empty. Returns the number of events executed.
  std::size_t run();

  /// Run events with time <= deadline; afterwards now() == deadline.
  std::size_t run_until(Microseconds deadline);

  /// True when no runnable events remain.
  [[nodiscard]] bool idle() const { return live_count_ == 0; }

  [[nodiscard]] std::size_t pending_events() const { return live_count_; }

  /// Safety valve for tests: run() throws after this many events
  /// (default: effectively unlimited).
  void set_event_limit(std::size_t limit) { event_limit_ = limit; }

  /// Deterministic work counts since construction — a pure function of
  /// the simulation, like its output bytes. Every schedule_* call and
  /// every PacketChannel push counts once in `scheduled`, which therefore
  /// equals dispatched + cancelled + pending_events() (a channel destroyed
  /// with packets queued counts them as cancelled).
  struct Counters {
    std::uint64_t scheduled{0};    // events published by schedule_* or push
    std::uint64_t dispatched{0};   // callbacks run and packets released
    std::uint64_t cancelled{0};    // pending events cancelled
    std::uint64_t rearmed{0};      // re-arms deferred in place
    std::uint64_t rekeyed{0};      // deferred entries re-pushed at the top
    std::uint64_t tombstones{0};   // dead entries popped off the heap
    std::uint64_t heap_pushes{0};  // entries pushed onto the heap from
                                   // the inbox (a re-key or a channel's
                                   // re-entry replaces the top in place)
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  friend class PacketChannel;

  struct HeapEntry {
    Microseconds at;
    std::uint64_t seq;         // FIFO tie-break among same-time events
    std::uint32_t slot;        // index into the slot arena, or a channel
                               // index with kChannelBit set
    std::uint32_t generation;  // live iff it matches the slot's generation
                               // (unused for channels)
  };

  /// A pending event's callback plus the generation stamp that validates
  /// ids. Invariant: slot generation == heap-entry generation exactly
  /// while the event is pending; cancel and dispatch both bump it. The
  /// due key (due_at, due_seq) is the event's dispatch key; its one
  /// heap/inbox entry is queued under `queued_at` <= due_at.
  struct Slot {
    Action action;
    std::uint32_t generation{0};
    std::uint32_t next_free{kNoFreeSlot};
    Microseconds queued_at{0};
    Microseconds due_at{0};
    std::uint64_t due_seq{0};
  };

  static constexpr std::uint32_t kNoFreeSlot = 0xFFFF'FFFF;
  static constexpr std::uint32_t kChannelBit = 0x8000'0000;
  static constexpr std::size_t kSlotChunkShift = 6;  // 64 slots per chunk
  static constexpr std::size_t kSlotChunkSize = std::size_t{1} << kSlotChunkShift;

  static constexpr bool earlier(const HeapEntry& a, const HeapEntry& b) {
    // Lexicographic (at, seq) as one 128-bit compare — branchless, which
    // matters in the sift loops where the outcome is data-dependent.
    // `at` is never negative (schedule_at asserts at >= now_ >= 0).
    using Key = unsigned __int128;
    return ((Key{static_cast<std::uint64_t>(a.at)} << 64) | a.seq) <
           ((Key{static_cast<std::uint64_t>(b.at)} << 64) | b.seq);
  }
  static constexpr EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }
  static void bump_generation(Slot& slot) {
    if (++slot.generation == 0) {
      ++slot.generation;  // generation 0 is reserved so ids are never zero
    }
  }

  [[nodiscard]] Slot& slot_at(std::uint32_t index) {
    return slot_chunks_[index >> kSlotChunkShift][index & (kSlotChunkSize - 1)];
  }
  /// The slot of a pending event, or null when `id` already ran, was
  /// cancelled, or its slot was reused or never existed.
  [[nodiscard]] Slot* pending_slot(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slot_count_) {
      return nullptr;
    }
    Slot& s = slot_at(slot);
    return s.generation == static_cast<std::uint32_t>(id) ? &s : nullptr;
  }

  template <typename F>
  static void check_action(const F& f) {
    if constexpr (requires { static_cast<bool>(f); }) {
      // Catch empty std::functions (and null function pointers) at the
      // schedule site instead of a bad_function_call mid-run.
      MAHI_ASSERT_MSG(static_cast<bool>(f), "null action");
    }
  }

  /// Record the entry for an acquired slot whose action is already in
  /// place, making the event live. Entries land in the unsorted inbox and
  /// only pay for heap insertion at the next dispatch — an event
  /// cancelled before then never touches the heap at all (the dominant
  /// fate of batch-armed timers).
  void publish_event(Microseconds at, std::uint32_t slot);
  /// Move inbox entries into the heap under their due keys, skipping
  /// (and releasing) ones already cancelled.
  void drain_inbox();
  static void check_delay(Microseconds delay);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void sift_up(std::size_t index);
  /// Remove the heap top and place `entry` (a key not in the heap) in its
  /// stead, restoring heap order.
  void replace_top(const HeapEntry& entry);
  void pop_top();
  /// Discard tombstoned entries at the heap top and re-push deferred ones
  /// under their due keys; afterwards the top (if any) is a live event
  /// under its due key.
  void settle_top();
  bool pop_one();
  /// Release the head packet of the channel at the heap top.
  void dispatch_channel(const HeapEntry& top);
  std::uint32_t register_channel(PacketChannel* channel);
  void unregister_channel(const PacketChannel& channel);
  void check_limit(std::size_t executed) const;

  Microseconds now_{0};
  std::uint64_t next_seq_{1};
  std::size_t live_count_{0};
  std::size_t event_limit_{~0ULL};
  std::vector<HeapEntry> heap_;   // 4-ary min-heap on (at, seq)
  std::vector<HeapEntry> inbox_;  // scheduled since the last dispatch
  /// Chunked arena: addresses are stable across growth, so callbacks are
  /// never moved by other events being scheduled (dispatch relies on this).
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::size_t slot_count_{0};
  std::uint32_t free_head_{kNoFreeSlot};
  /// Every channel registered on this loop, by index; null once
  /// destroyed. Indices are never reused, so an entry a destroyed channel
  /// left queued stays dead.
  std::vector<PacketChannel*> channels_;
  Counters counters_;
};

/// A timed FIFO of packets released to a sink: the event loop's form of
/// DelayShell's packet queue. push() reserves the dispatch key
/// (at, next sequence number) exactly as schedule_at would, so packets
/// are released in the order per-packet events would have run, and
/// counted as events (scheduled, dispatched, pending_events(), the event
/// limit). Release times must be monotone per channel — one channel per
/// stream whose delay is fixed or whose server is FIFO.
///
/// The ring allocates on the first push and grows by doubling. The sink
/// may push onto this channel. Destroying a channel drops its queued
/// packets (they leave pending_events() as cancelled); the loop never
/// touches it again.
class PacketChannel {
 public:
  using Sink = std::function<void(Packet&&)>;

  PacketChannel(EventLoop& loop, Sink sink);
  ~PacketChannel();
  PacketChannel(const PacketChannel&) = delete;
  PacketChannel& operator=(const PacketChannel&) = delete;

  /// Release `packet` to the sink at absolute time `at`: at >= now() and
  /// at >= every earlier push's time.
  void push(Microseconds at, Packet&& packet);

 private:
  friend class EventLoop;

  struct Item {
    Microseconds at{0};
    std::uint64_t seq{0};
    Packet packet;
  };

  [[nodiscard]] Item& front() { return ring_[head_]; }
  void grow();

  EventLoop* loop_;  // null once the loop is destroyed
  Sink sink_;
  std::unique_ptr<Item[]> ring_;  // capacity_ items, a power of two
  std::size_t capacity_{0};
  std::size_t head_{0};
  std::size_t count_{0};
  Microseconds last_at_{0};
  std::uint32_t index_{0};  // registration in the loop
};

/// A session-scoped view of a shared loop's clock: time zero is the
/// moment the session was admitted, so code multiplexing many sessions
/// onto one EventLoop (fleet::SessionMux) can report per-session
/// timestamps that are independent of where the session sits in the
/// fleet's arrival schedule. Durations measured on a SessionClock equal
/// durations measured on the underlying loop — the view only shifts the
/// epoch, never the rate.
class SessionClock {
 public:
  SessionClock() = default;
  SessionClock(const EventLoop& loop, Microseconds origin)
      : loop_{&loop}, origin_{origin} {
    MAHI_ASSERT_MSG(origin >= 0, "session epoch before the loop epoch");
  }

  /// Microseconds since this session's epoch (>= 0 once the session runs).
  [[nodiscard]] Microseconds now() const { return loop_->now() - origin_; }

  /// The session's epoch on the shared loop's clock.
  [[nodiscard]] Microseconds origin() const { return origin_; }

 private:
  const EventLoop* loop_{nullptr};
  Microseconds origin_{0};
};

}  // namespace mahimahi::net
