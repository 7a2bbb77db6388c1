#include "sim/event_loop.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace qoed::sim {

std::string format_time(TimePoint t) { return format_duration(t.since_start()); }

std::string format_duration(Duration d) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6fs", to_seconds(d));
  return buf;
}

void TimerHandle::cancel() {
  if (active()) loop_->cancel_slot(slot_);
}

bool TimerHandle::active() const { return loop_ && loop_->live(slot_, gen_); }

bool TimerHandle::reschedule(TimePoint at) {
  if (!active()) return false;
  loop_->reschedule_slot(slot_, at);
  gen_ = loop_->slots_[slot_].gen;
  return true;
}

EventLoop::~EventLoop() {
  // Pending closures may own objects whose destructors cancel handles into
  // this loop (a captured TcpSocket): with the slab moved out, those handles
  // find no slot and the cancel is a no-op.
  heap_.clear();
  std::vector<Slot> pending = std::move(slots_);
  free_head_ = kNoSlot;
}

TimerHandle EventLoop::schedule_at(TimePoint at, std::function<void()> fn) {
  if (at < now_) at = now_;
  std::uint32_t slot = free_head_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    free_head_ = slots_[slot].pos;
  }
  slots_[slot].fn = std::move(fn);
  heap_.emplace_back();
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1),
          Entry{at, next_seq_++, slot});
  return TimerHandle{this, slot, slots_[slot].gen};
}

TimerHandle EventLoop::schedule_after(Duration delay, std::function<void()> fn) {
  if (delay < Duration::zero()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

void EventLoop::cancel_slot(std::uint32_t slot) {
  remove_entry(slots_[slot].pos);
  std::function<void()> fn = std::move(slots_[slot].fn);
  release(slot);
  // `fn` is destroyed on return, once the loop is consistent again: its
  // destructor may cancel or schedule other events.
}

void EventLoop::reschedule_slot(std::uint32_t slot, TimePoint at) {
  if (at < now_) at = now_;
  ++slots_[slot].gen;
  const std::uint32_t pos = slots_[slot].pos;
  const Entry e{at, next_seq_++, slot};
  if (earlier(e, heap_[pos])) {
    sift_up(pos, e);
  } else {
    sift_down(pos, e);
  }
}

void EventLoop::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.gen;
  s.pos = free_head_;
  free_head_ = slot;
}

void EventLoop::remove_entry(std::uint32_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && earlier(last, heap_[(pos - 1) / 4])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void EventLoop::sift_up(std::uint32_t pos, Entry e) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void EventLoop::sift_down(std::uint32_t pos, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * std::size_t{pos} + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = static_cast<std::uint32_t>(best);
  }
  place(pos, e);
}

bool EventLoop::dispatch_next() {
  if (heap_.empty()) return false;
  const Entry top = heap_.front();
  remove_entry(0);
  // Move the closure out and free the slot before the call: the handle is
  // inert inside the callback, and the callback may reuse the slot.
  std::function<void()> fn = std::move(slots_[top.slot].fn);
  release(top.slot);
  now_ = top.at;
  ++dispatched_;
  fn();
  return true;
}

std::size_t EventLoop::run() {
  std::size_t n = 0;
  while (!stop_requested_ && dispatch_next()) ++n;
  return n;
}

std::size_t EventLoop::run_until(TimePoint deadline) {
  std::size_t n = 0;
  while (!stop_requested_ && !heap_.empty() && heap_.front().at <= deadline) {
    dispatch_next();
    ++n;
  }
  // A mid-run stop freezes the clock at the aborting event; otherwise the
  // clock lands exactly on the deadline even when no event fired there.
  if (!stop_requested_ && now_ < deadline) now_ = deadline;
  return n;
}

bool EventLoop::step() { return dispatch_next(); }

}  // namespace qoed::sim
