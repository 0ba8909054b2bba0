#include "net/event_loop.hpp"

#include <stdexcept>

#include "util/assert.hpp"

namespace mahimahi::net {
namespace {

constexpr std::size_t kHeapArity = 4;

}  // namespace

void EventLoop::publish_event(Microseconds at, std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.queued_at = at;
  s.due_at = at;
  s.due_seq = next_seq_++;
  inbox_.push_back(HeapEntry{at, s.due_seq, slot, s.generation});
  ++live_count_;
  ++counters_.scheduled;
}

EventLoop::~EventLoop() {
  for (PacketChannel* channel : channels_) {
    if (channel != nullptr) {
      channel->loop_ = nullptr;
    }
  }
}

void EventLoop::drain_inbox() {
  for (const HeapEntry& entry : inbox_) {
    if ((entry.slot & kChannelBit) != 0) {
      if (channels_[entry.slot & ~kChannelBit] == nullptr) {
        continue;  // destroyed before its entry ever reached the heap
      }
      heap_.push_back(entry);  // the channel's head key, unchanged since
      sift_up(heap_.size() - 1);
      ++counters_.heap_pushes;
      continue;
    }
    Slot& s = slot_at(entry.slot);
    if (s.generation != entry.generation) {
      release_slot(entry.slot);  // cancelled before ever entering the heap
      continue;
    }
    // A re-arm while still in the inbox costs nothing: enter the heap
    // under the due key directly.
    s.queued_at = s.due_at;
    heap_.push_back(HeapEntry{s.due_at, s.due_seq, entry.slot, entry.generation});
    sift_up(heap_.size() - 1);
    ++counters_.heap_pushes;
  }
  inbox_.clear();
}

void EventLoop::check_delay(Microseconds delay) {
  MAHI_ASSERT_MSG(delay >= 0, "negative delay: " << delay);
}

EventLoop::EventId EventLoop::schedule_at(Microseconds at, Action action) {
  MAHI_ASSERT_MSG(static_cast<bool>(action), "null action");
  MAHI_ASSERT_MSG(at >= now_, "scheduling into the past: " << at << " < " << now_);
  const std::uint32_t slot = acquire_slot();
  Slot& s = slot_at(slot);
  s.action = std::move(action);  // noexcept: fill before publishing
  publish_event(at, slot);
  return make_id(slot, s.generation);
}

EventLoop::EventId EventLoop::schedule_in(Microseconds delay, Action action) {
  check_delay(delay);
  return schedule_at(now_ + delay, std::move(action));
}

void EventLoop::cancel(EventId id) {
  Slot* s = pending_slot(id);
  if (s == nullptr) {
    return;
  }
  // Tombstone: the heap entry stays until it surfaces (its generation no
  // longer matches), but the callback and whatever it captured are
  // released right now. The slot rejoins the free list only when the dead
  // entry pops, so it cannot be reused while the entry is in the heap.
  bump_generation(*s);
  s->action.reset();
  --live_count_;
  ++counters_.cancelled;
}

std::uint32_t EventLoop::acquire_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slot_at(slot).next_free;
    bump_generation(slot_at(slot));
    return slot;
  }
  MAHI_ASSERT_MSG(slot_count_ < kChannelBit, "slot arena exhausted");
  if (slot_count_ == slot_chunks_.size() * kSlotChunkSize) {
    // for_overwrite: default-init only — no 13 KB zero-fill per chunk
    // (Slot's members have initializers; the inline buffer needs none).
    slot_chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kSlotChunkSize));
  }
  const auto slot = static_cast<std::uint32_t>(slot_count_++);
  bump_generation(slot_at(slot));
  return slot;
}

void EventLoop::release_slot(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventLoop::sift_up(std::size_t index) {
  const HeapEntry entry = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / kHeapArity;
    if (!earlier(entry, heap_[parent])) {
      break;
    }
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = entry;
}

void EventLoop::pop_top() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    replace_top(last);
  }
}

void EventLoop::replace_top(const HeapEntry& entry) {
  const std::size_t n = heap_.size();
  // Hole-based: walk the hole from the root to a leaf promoting the
  // smallest child (no compare against `entry` per level), then place
  // `entry` and restore upward. Both callers place a late key — the last
  // leaf, or a deferred timer — so the up-pass almost always stops
  // immediately.
  std::size_t hole = 0;
  while (true) {
    const std::size_t first_child = hole * kHeapArity + 1;
    if (first_child >= n) {
      break;
    }
    std::size_t best = first_child;
    const std::size_t end_child = std::min(first_child + kHeapArity, n);
    for (std::size_t child = first_child + 1; child < end_child; ++child) {
      if (earlier(heap_[child], heap_[best])) {
        best = child;
      }
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = entry;
  sift_up(hole);
}

void EventLoop::settle_top() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if ((top.slot & kChannelBit) != 0) {
      if (channels_[top.slot & ~kChannelBit] != nullptr) {
        return;  // a channel's entry is always under its head's key
      }
      pop_top();  // the channel was destroyed
      ++counters_.tombstones;
      continue;
    }
    Slot& s = slot_at(top.slot);
    if (s.generation != top.generation) {
      pop_top();
      release_slot(top.slot);
      ++counters_.tombstones;
    } else if (s.due_seq != top.seq) {
      // Deferred by rearm(): move the entry to its due key.
      s.queued_at = s.due_at;
      replace_top(HeapEntry{s.due_at, s.due_seq, top.slot, top.generation});
      ++counters_.rekeyed;
    } else {
      return;  // live, under its due key
    }
  }
}

bool EventLoop::pop_one() {
  if (!inbox_.empty()) {
    drain_inbox();
  }
  settle_top();
  if (heap_.empty()) {
    return false;
  }
  const HeapEntry top = heap_.front();
  MAHI_ASSERT(top.at >= now_);
  if ((top.slot & kChannelBit) != 0) {
    dispatch_channel(top);
    return true;
  }
  Slot& s = slot_at(top.slot);  // stable across arena growth
  MAHI_ASSERT(top.seq == s.due_seq && top.at == s.due_at);
  pop_top();
  // Invalidate the id before dispatch: a cancel of this event from
  // inside its own callback (or anything the callback triggers) is a
  // no-op, exactly as if the event had already finished.
  bump_generation(s);
  --live_count_;
  ++counters_.dispatched;
  now_ = top.at;
  // Invoke in place — no callback move. The action may schedule events
  // (the chunked arena never relocates this slot) or cancel anything.
  try {
    s.action();
  } catch (...) {
    s.action.reset();
    release_slot(top.slot);
    throw;
  }
  s.action.reset();
  release_slot(top.slot);
  return true;
}

void EventLoop::dispatch_channel(const HeapEntry& top) {
  PacketChannel& channel = *channels_[top.slot & ~kChannelBit];
  PacketChannel::Item& head = channel.front();
  MAHI_ASSERT(top.seq == head.seq && top.at == head.at);
  Packet packet = std::move(head.packet);
  channel.head_ = (channel.head_ + 1) & (channel.capacity_ - 1);
  // Re-enter under the next item's key before the sink runs, so the sink
  // may push onto this channel.
  if (--channel.count_ > 0) {
    const PacketChannel::Item& next = channel.front();
    replace_top(HeapEntry{next.at, next.seq, top.slot, 0});
  } else {
    pop_top();
  }
  --live_count_;
  ++counters_.dispatched;
  now_ = top.at;
  channel.sink_(std::move(packet));
}

std::uint32_t EventLoop::register_channel(PacketChannel* channel) {
  MAHI_ASSERT_MSG(channels_.size() < kChannelBit, "channel table exhausted");
  channels_.push_back(channel);
  return static_cast<std::uint32_t>(channels_.size() - 1);
}

void EventLoop::unregister_channel(const PacketChannel& channel) {
  channels_[channel.index_] = nullptr;
  live_count_ -= channel.count_;
  counters_.cancelled += channel.count_;
}

void EventLoop::check_limit(std::size_t executed) const {
  if (executed > event_limit_) {
    throw std::runtime_error{"EventLoop exceeded event limit (runaway simulation?)"};
  }
}

std::size_t EventLoop::run() {
  std::size_t executed = 0;
  while (pop_one()) {
    check_limit(++executed);
  }
  return executed;
}

std::size_t EventLoop::run_until(Microseconds deadline) {
  MAHI_ASSERT(deadline >= now_);
  std::size_t executed = 0;
  while (true) {
    if (!inbox_.empty()) {
      drain_inbox();
    }
    // Settle the head so the deadline check sees a live event's due key.
    settle_top();
    if (heap_.empty() || heap_.front().at > deadline) {
      break;
    }
    pop_one();
    check_limit(++executed);
  }
  now_ = deadline;
  return executed;
}

// --- PacketChannel ----------------------------------------------------------

PacketChannel::PacketChannel(EventLoop& loop, Sink sink)
    : loop_{&loop}, sink_{std::move(sink)} {
  MAHI_ASSERT(sink_ != nullptr);
  index_ = loop.register_channel(this);  // last: nothing after it throws
}

PacketChannel::~PacketChannel() {
  if (loop_ != nullptr) {
    loop_->unregister_channel(*this);
  }
}

void PacketChannel::push(Microseconds at, Packet&& packet) {
  MAHI_ASSERT_MSG(loop_ != nullptr, "push onto a channel whose loop is gone");
  EventLoop& loop = *loop_;
  MAHI_ASSERT_MSG(at >= loop.now_,
                  "scheduling into the past: " << at << " < " << loop.now_);
  MAHI_ASSERT_MSG(at >= last_at_, "channel push out of order: "
                                      << at << " < " << last_at_);
  if (count_ == capacity_) {
    grow();
  }
  Item& item = ring_[(head_ + count_) & (capacity_ - 1)];
  item.at = at;
  item.seq = loop.next_seq_++;
  item.packet = std::move(packet);
  last_at_ = at;
  if (count_++ == 0) {
    // The head enters the inbox exactly as a scheduled event would.
    loop.inbox_.push_back(EventLoop::HeapEntry{
        at, item.seq, index_ | EventLoop::kChannelBit, 0});
  }
  ++loop.live_count_;
  ++loop.counters_.scheduled;
}

void PacketChannel::grow() {
  const std::size_t capacity = capacity_ == 0 ? 4 : capacity_ * 2;
  auto ring = std::make_unique<Item[]>(capacity);
  for (std::size_t i = 0; i < count_; ++i) {
    ring[i] = std::move(ring_[(head_ + i) & (capacity_ - 1)]);
  }
  ring_ = std::move(ring);
  capacity_ = capacity;
  head_ = 0;
}

}  // namespace mahimahi::net
