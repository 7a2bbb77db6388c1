// Deterministic single-threaded discrete-event loop.
//
// Components schedule closures at virtual times; the loop dispatches them in
// (time, insertion-order) order, so runs are exactly reproducible. Timers can
// be cancelled or re-armed through the handle returned at scheduling time.
//
// A pending event's closure lives in a reusable slot of the loop's slab; the
// slot also holds a generation, bumped whenever its event fires or is
// cancelled, and the position of the event's entry in a 4-ary min-heap of
// {time, sequence, slot} entries. A handle is {loop, slot, generation}, so
// scheduling allocates nothing beyond the closure itself, and cancelling
// removes the entry and destroys the closure at once: no tombstones.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"

namespace qoed::sim {

class EventLoop;

// Handle to a scheduled event. Default-constructed handles are inert, and a
// handle goes inert once its event fires (already inside the callback) or is
// cancelled; cancelling or re-arming an inert handle is a no-op. A handle
// must not be used after its loop is destroyed.
class TimerHandle {
 public:
  TimerHandle() = default;

  void cancel();
  bool active() const;

  // Exactly cancel() followed by schedule_at(at, the same closure), with the
  // result stored back into this handle: `at` clamps to now, and the event
  // takes a fresh insertion sequence number, so it runs after every event
  // already scheduled at `at` and before any scheduled there later. Other
  // copies of this handle refer to the cancelled event and go inert. Returns
  // false, scheduling nothing, when the handle is inert.
  bool reschedule(TimePoint at);

 private:
  friend class EventLoop;
  TimerHandle(EventLoop* loop, std::uint32_t slot, std::uint64_t gen)
      : loop_(loop), slot_(slot), gen_(gen) {}

  EventLoop* loop_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  TimePoint now() const { return now_; }

  // Schedules `fn` to run at `at` (clamped to now if in the past).
  TimerHandle schedule_at(TimePoint at, std::function<void()> fn);

  // Schedules `fn` to run `delay` after now (negative delays clamp to now).
  TimerHandle schedule_after(Duration delay, std::function<void()> fn);

  // Runs events until the queue is empty. Returns the number dispatched.
  std::size_t run();

  // Runs events with timestamp <= deadline, then advances the clock to
  // exactly `deadline` (even if no event fired there).
  std::size_t run_until(TimePoint deadline);

  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  // Dispatches the single next event, if any. Returns false when idle.
  bool step();

  // Cooperative stop for control policies: a callback running inside the
  // loop may request a stop, making run()/run_until() return before the
  // queue drains. The clock stays at the aborting event's virtual time, so
  // a stop at t is exactly reproducible at any --jobs. The flag is sticky
  // until clear_stop(); pending events stay queued.
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }
  void clear_stop() { stop_requested_ = false; }

  // Events scheduled and neither dispatched nor cancelled yet.
  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t dispatched_events() const { return dispatched_; }

 private:
  friend class TimerHandle;

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  struct Slot {
    std::function<void()> fn;
    std::uint64_t gen = 0;
    // Heap index of the slot's entry while its event is pending; the next
    // free slot while it is on the free list.
    std::uint32_t pos = 0;
  };
  struct Entry {
    TimePoint at;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  static bool earlier(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  bool live(std::uint32_t slot, std::uint64_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }
  void cancel_slot(std::uint32_t slot);
  void reschedule_slot(std::uint32_t slot, TimePoint at);
  void release(std::uint32_t slot);
  void remove_entry(std::uint32_t pos);
  void sift_up(std::uint32_t pos, Entry e);
  void sift_down(std::uint32_t pos, Entry e);
  void place(std::uint32_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].pos = pos;
  }
  bool dispatch_next();

  TimePoint now_{};
  bool stop_requested_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::vector<Entry> heap_;
};

}  // namespace qoed::sim
