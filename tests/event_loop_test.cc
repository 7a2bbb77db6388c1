#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "sim/rng.h"

namespace qoed::sim {
namespace {

TEST(EventLoopTest, StartsAtTimeZero) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), kTimeZero);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopTest, DispatchesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(msec(30), [&] { order.push_back(3); });
  loop.schedule_after(msec(10), [&] { order.push_back(1); });
  loop.schedule_after(msec(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().since_start(), msec(30));
}

TEST(EventLoopTest, SameTimestampPreservesInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_after(msec(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, ClockAdvancesToEventTime) {
  EventLoop loop;
  TimePoint seen;
  loop.schedule_after(sec(2), [&] { seen = loop.now(); });
  loop.run();
  EXPECT_EQ(seen.since_start(), sec(2));
}

TEST(EventLoopTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_after(msec(10), [&] { ++fired; });
  loop.schedule_after(msec(100), [&] { ++fired; });
  loop.run_until(TimePoint{msec(50)});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now().since_start(), msec(50));
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, RunUntilWithEmptyQueueAdvancesClock) {
  EventLoop loop;
  loop.run_until(TimePoint{sec(5)});
  EXPECT_EQ(loop.now().since_start(), sec(5));
}

TEST(EventLoopTest, EventAtDeadlineIsDispatched) {
  EventLoop loop;
  bool fired = false;
  loop.schedule_after(msec(50), [&] { fired = true; });
  loop.run_until(TimePoint{msec(50)});
  EXPECT_TRUE(fired);
}

TEST(EventLoopTest, CancelledEventDoesNotFire) {
  EventLoop loop;
  bool fired = false;
  TimerHandle h = loop.schedule_after(msec(10), [&] { fired = true; });
  EXPECT_TRUE(h.active());
  h.cancel();
  EXPECT_FALSE(h.active());
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, CancelAfterFireIsNoop) {
  EventLoop loop;
  int fired = 0;
  TimerHandle h = loop.schedule_after(msec(10), [&] { ++fired; });
  loop.run();
  EXPECT_FALSE(h.active());
  h.cancel();  // must not crash or affect anything
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, DefaultHandleIsInert) {
  TimerHandle h;
  EXPECT_FALSE(h.active());
  h.cancel();  // no-op
}

TEST(EventLoopTest, EventsScheduledDuringDispatchRun) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_after(msec(1), recurse);
  };
  loop.schedule_after(msec(1), recurse);
  loop.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now().since_start(), msec(5));
}

TEST(EventLoopTest, PastScheduleClampsToNow) {
  EventLoop loop;
  loop.run_until(TimePoint{sec(1)});
  TimePoint seen;
  loop.schedule_at(TimePoint{msec(1)}, [&] { seen = loop.now(); });
  loop.run();
  EXPECT_EQ(seen.since_start(), sec(1));  // not in the past
}

TEST(EventLoopTest, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.run_until(TimePoint{sec(1)});
  bool fired = false;
  loop.schedule_after(msec(-100), [&] { fired = true; });
  loop.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.now().since_start(), sec(1));
}

TEST(EventLoopTest, StepDispatchesExactlyOne) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_after(msec(1), [&] { ++fired; });
  loop.schedule_after(msec(2), [&] { ++fired; });
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(loop.step());
}

TEST(EventLoopTest, DispatchedCounterCounts) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.schedule_after(msec(i), [] {});
  loop.run();
  EXPECT_EQ(loop.dispatched_events(), 7u);
}

// Runs `f` when the last copy of the returned token is destroyed, so a
// closure capturing it acts on its own destruction whichever way the
// closure is copied or moved.
std::shared_ptr<void> on_destroy(std::function<void()> f) {
  return std::shared_ptr<void>(nullptr, [f = std::move(f)](void*) { f(); });
}

TEST(EventLoopTest, StaleHandleWithReusedSlotStaysInert) {
  EventLoop loop;
  int fired = 0;
  TimerHandle stale = loop.schedule_after(msec(10), [&] { fired += 100; });
  stale.cancel();
  TimerHandle fresh = loop.schedule_after(msec(10), [&] { ++fired; });
  EXPECT_FALSE(stale.active());
  stale.cancel();  // must leave the new occupant alone
  EXPECT_TRUE(fresh.active());
  loop.run();
  EXPECT_EQ(fired, 1);

  TimerHandle done = loop.schedule_after(msec(1), [] {});
  loop.run();
  TimerHandle next = loop.schedule_after(msec(1), [&] { ++fired; });
  EXPECT_FALSE(done.active());
  done.cancel();
  EXPECT_TRUE(next.active());
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, HandleIsInertInsideItsOwnCallback) {
  EventLoop loop;
  TimerHandle h;
  bool active_inside = true;
  h = loop.schedule_after(msec(1), [&] {
    active_inside = h.active();
    h.cancel();  // late cancel: no-op
  });
  loop.run();
  EXPECT_FALSE(active_inside);
  EXPECT_EQ(loop.dispatched_events(), 1u);
}

TEST(EventLoopTest, CancelReleasesClosureAndQueueEntryAtOnce) {
  EventLoop loop;
  auto owned = std::make_shared<int>(7);
  TimerHandle h = loop.schedule_after(msec(10), [owned] {});
  loop.schedule_after(msec(20), [] {});
  EXPECT_EQ(owned.use_count(), 2);
  EXPECT_EQ(loop.pending_events(), 2u);
  h.cancel();
  EXPECT_EQ(owned.use_count(), 1);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.run();
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopTest, ClosureDestructorMayCancelAnotherHandle) {
  EventLoop loop;
  bool b_fired = false;
  TimerHandle b = loop.schedule_after(msec(20), [&] { b_fired = true; });
  TimerHandle a = loop.schedule_after(
      msec(10), [token = on_destroy([&] { b.cancel(); })] {});
  a.cancel();
  loop.run();
  EXPECT_FALSE(b_fired);
  EXPECT_FALSE(b.active());
}

TEST(EventLoopTest, ClosureDestructorMayCancelHandlesDuringTeardown) {
  bool teardown_ran = false;
  {
    EventLoop loop;
    TimerHandle a;
    TimerHandle b = loop.schedule_after(msec(20), [] {});
    // Like a captured TcpSocket: the destructor cancels its own timer and a
    // sibling's while the loop tears down.
    a = loop.schedule_after(msec(10), [token = on_destroy([&] {
                                         a.cancel();
                                         b.cancel();
                                         teardown_ran = true;
                                       })] {});
  }
  EXPECT_TRUE(teardown_ran);
}

TEST(EventLoopTest, RescheduleOrdersExactlyLikeCancelPlusSchedule) {
  // Two loops run the same script; one re-arms with reschedule(), the other
  // with cancel() + schedule_at() of the same closure.
  auto script = [](bool use_reschedule) {
    EventLoop loop;
    std::vector<char> order;
    auto note = [&](char c) { return [&order, c] { order.push_back(c); }; };
    loop.schedule_at(TimePoint{msec(10)}, note('a'));
    TimerHandle x = loop.schedule_at(TimePoint{msec(5)}, note('x'));
    loop.schedule_at(TimePoint{msec(10)}, note('b'));
    if (use_reschedule) {
      EXPECT_TRUE(x.reschedule(TimePoint{msec(10)}));
    } else {
      x.cancel();
      x = loop.schedule_at(TimePoint{msec(10)}, note('x'));
    }
    loop.schedule_at(TimePoint{msec(10)}, note('c'));
    EXPECT_TRUE(x.active());
    loop.run();
    return order;
  };
  const std::vector<char> expected{'a', 'b', 'x', 'c'};
  EXPECT_EQ(script(true), expected);
  EXPECT_EQ(script(false), expected);
}

TEST(EventLoopTest, RescheduleMovesEarlierOrLater) {
  EventLoop loop;
  std::vector<std::pair<char, TimePoint>> fired;
  auto note = [&](char c) {
    return [&, c] { fired.emplace_back(c, loop.now()); };
  };
  TimerHandle early = loop.schedule_at(TimePoint{msec(50)}, note('e'));
  TimerHandle late = loop.schedule_at(TimePoint{msec(20)}, note('l'));
  loop.schedule_at(TimePoint{msec(30)}, note('m'));
  loop.schedule_at(TimePoint{msec(60)}, note('n'));
  EXPECT_TRUE(early.reschedule(TimePoint{msec(20)}));
  EXPECT_TRUE(late.reschedule(TimePoint{msec(80)}));
  EXPECT_EQ(loop.pending_events(), 4u);
  loop.run();
  const std::vector<std::pair<char, TimePoint>> expected{
      {'e', TimePoint{msec(20)}},
      {'m', TimePoint{msec(30)}},
      {'n', TimePoint{msec(60)}},
      {'l', TimePoint{msec(80)}}};
  EXPECT_EQ(fired, expected);
}

TEST(EventLoopTest, RescheduleIntoThePastClampsToNow) {
  EventLoop loop;
  loop.run_until(TimePoint{sec(1)});
  TimePoint seen;
  TimerHandle h = loop.schedule_after(sec(5), [&] { seen = loop.now(); });
  EXPECT_TRUE(h.reschedule(TimePoint{msec(1)}));
  loop.run();
  EXPECT_EQ(seen.since_start(), sec(1));
}

TEST(EventLoopTest, RescheduleOfInertHandleSchedulesNothing) {
  EventLoop loop;
  int fired = 0;
  TimerHandle done = loop.schedule_after(msec(1), [&] { ++fired; });
  loop.run();
  TimerHandle cancelled = loop.schedule_after(msec(1), [&] { ++fired; });
  cancelled.cancel();
  TimerHandle inert;
  EXPECT_FALSE(done.reschedule(loop.now() + msec(5)));
  EXPECT_FALSE(cancelled.reschedule(loop.now() + msec(5)));
  EXPECT_FALSE(inert.reschedule(loop.now() + msec(5)));
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_FALSE(done.active() || cancelled.active() || inert.active());
  loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, RescheduleLeavesEarlierCopiesInert) {
  EventLoop loop;
  int fired = 0;
  TimerHandle h = loop.schedule_after(msec(10), [&] { ++fired; });
  const TimerHandle copy = h;
  EXPECT_TRUE(h.reschedule(TimePoint{msec(20)}));
  EXPECT_TRUE(h.active());
  EXPECT_FALSE(copy.active());
  TimerHandle stale = copy;
  stale.cancel();
  EXPECT_FALSE(stale.reschedule(TimePoint{msec(5)}));
  EXPECT_TRUE(h.active());
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now().since_start(), msec(20));
}

TEST(EventLoopTest, RearmingOneTimerManyTimesLeavesOneEvent) {
  EventLoop loop;
  std::vector<TimePoint> fired;
  TimerHandle h =
      loop.schedule_after(msec(1), [&] { fired.push_back(loop.now()); });
  for (int i = 1; i <= 10'000; ++i) {
    EXPECT_TRUE(h.reschedule(TimePoint{usec(1000 + (i * 7919) % 5000)}));
  }
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], TimePoint{usec(1000 + (10'000 * 7919) % 5000)});
}

// Reference model of the kernel's contract: an ordered set of
// (at, seq, id). Re-arming erases the entry and inserts it again with a
// fresh seq; an event leaves the set before its callback runs.
class ModelLoop {
 public:
  explicit ModelLoop(std::function<void(int)> fire) : fire_(std::move(fire)) {}

  TimePoint now() const { return now_; }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t dispatched() const { return dispatched_; }
  bool active(int id) const { return live_.contains(id); }

  void schedule_at(int id, TimePoint at) {
    const Key key{std::max(at, now_), next_seq_++, id};
    queue_.insert(key);
    live_.emplace(id, key);
  }
  void schedule_after(int id, Duration d) {
    schedule_at(id, now_ + std::max(d, Duration::zero()));
  }
  void cancel(int id) {
    auto it = live_.find(id);
    if (it == live_.end()) return;
    queue_.erase(it->second);
    live_.erase(it);
  }
  bool reschedule(int id, TimePoint at) {
    if (!active(id)) return false;
    cancel(id);
    schedule_at(id, at);
    return true;
  }
  bool step() {
    if (queue_.empty()) return false;
    const auto [at, seq, id] = *queue_.begin();
    queue_.erase(queue_.begin());
    live_.erase(id);
    now_ = at;
    ++dispatched_;
    fire_(id);
    return true;
  }
  std::size_t run() {
    std::size_t n = 0;
    while (!stop_ && step()) ++n;
    return n;
  }
  std::size_t run_until(TimePoint deadline) {
    std::size_t n = 0;
    while (!stop_ && !queue_.empty() &&
           std::get<0>(*queue_.begin()) <= deadline) {
      step();
      ++n;
    }
    if (!stop_ && now_ < deadline) now_ = deadline;
    return n;
  }
  void request_stop() { stop_ = true; }
  bool stop_requested() const { return stop_; }
  void clear_stop() { stop_ = false; }

 private:
  using Key = std::tuple<TimePoint, std::uint64_t, int>;
  std::function<void(int)> fire_;
  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  bool stop_ = false;
  std::set<Key> queue_;
  std::map<int, Key> live_;
};

// The kernel behind the model's interface: event `id`'s closure reports
// `id`, and handle `id` is the one its scheduling returned.
class KernelLoop {
 public:
  explicit KernelLoop(std::function<void(int)> fire) : fire_(std::move(fire)) {}

  TimePoint now() const { return loop_.now(); }
  std::size_t pending() const { return loop_.pending_events(); }
  std::uint64_t dispatched() const { return loop_.dispatched_events(); }
  bool active(int id) const {
    return handles_[static_cast<std::size_t>(id)].active();
  }

  void schedule_at(int id, TimePoint at) {
    handles_.push_back(loop_.schedule_at(at, [this, id] { fire_(id); }));
    ASSERT_EQ(handles_.size(), static_cast<std::size_t>(id) + 1);
  }
  void schedule_after(int id, Duration d) {
    handles_.push_back(loop_.schedule_after(d, [this, id] { fire_(id); }));
    ASSERT_EQ(handles_.size(), static_cast<std::size_t>(id) + 1);
  }
  void cancel(int id) { handles_[static_cast<std::size_t>(id)].cancel(); }
  bool reschedule(int id, TimePoint at) {
    return handles_[static_cast<std::size_t>(id)].reschedule(at);
  }
  bool step() { return loop_.step(); }
  std::size_t run() { return loop_.run(); }
  std::size_t run_until(TimePoint deadline) {
    return loop_.run_until(deadline);
  }
  void request_stop() { loop_.request_stop(); }
  bool stop_requested() const { return loop_.stop_requested(); }
  void clear_stop() { loop_.clear_stop(); }

 private:
  std::function<void(int)> fire_;
  EventLoop loop_;
  std::vector<TimerHandle> handles_;
};

// Drives a seeded random sequence of operations against one loop and
// records every observable result. Both loops consume the same draws as
// long as they behave alike, so the first divergence pinpoints the bug.
template <class Loop>
class Script {
 public:
  explicit Script(std::uint64_t seed)
      : rng_(seed), loop_([this](int id) { on_fire(id); }) {}

  std::vector<std::int64_t> run(int ops) {
    for (int i = 0; i < ops; ++i) top_level_op();
    const std::size_t drained = loop_.run();
    record(kDrain, static_cast<std::int64_t>(drained), 0);
    record(kDispatched, static_cast<std::int64_t>(loop_.dispatched()), 0);
    return std::move(trace_);
  }

 private:
  enum Op : std::int64_t {
    kScheduleAt, kScheduleAfter, kCancel, kReschedule, kActive, kFire,
    kRunUntil, kStep, kRun, kDrain, kDispatched
  };

  void record(Op op, std::int64_t a, std::int64_t b) {
    trace_.insert(trace_.end(),
                  {op, a, b, loop_.now().since_start().count(),
                   static_cast<std::int64_t>(loop_.pending())});
  }

  // Mostly a few microseconds around now, so equal timestamps are frequent
  // and some targets lie in the past; sometimes far ahead, to build depth.
  TimePoint target() {
    if (rng_.bernoulli(0.5)) return loop_.now() + usec(rng_.uniform_int(-2, 6));
    return loop_.now() + usec(rng_.uniform_int(0, 20'000));
  }

  // A recent id, so picked handles are often still pending.
  int pick() {
    return static_cast<int>(
        rng_.uniform_int(std::max(0, next_id_ - 64), next_id_ - 1));
  }

  void mutate() {
    switch (next_id_ == 0 ? 0 : rng_.uniform_int(0, 4)) {
      case 0: {
        const int id = next_id_++;
        const TimePoint at = target();
        loop_.schedule_at(id, at);
        record(kScheduleAt, id, at.since_start().count());
        break;
      }
      case 1: {
        const int id = next_id_++;
        const Duration d = usec(rng_.uniform_int(-3, 8));
        loop_.schedule_after(id, d);
        record(kScheduleAfter, id, d.count());
        break;
      }
      case 2: {
        const int id = pick();
        loop_.cancel(id);
        record(kCancel, id, loop_.active(id));
        break;
      }
      case 3: {
        const int id = pick();
        const bool moved = loop_.reschedule(id, target());
        record(kReschedule, id, moved);
        break;
      }
      default: {
        const int id = pick();
        record(kActive, id, loop_.active(id));
        break;
      }
    }
  }

  void on_fire(int id) {
    record(kFire, id, loop_.active(id));
    // Fewer than one new event per fired one on average keeps the queue
    // bounded while callbacks schedule, cancel and re-arm others.
    const std::int64_t k = rng_.uniform_int(0, 99);
    if (k < 50) mutate();
    if (k < 10) mutate();
    if (k == 99) loop_.request_stop();
  }

  void top_level_op() {
    const std::int64_t k = rng_.uniform_int(0, 9'999);
    if (k < 7'500) {
      mutate();
    } else if (k < 9'500) {
      const TimePoint deadline = loop_.now() + usec(rng_.uniform_int(0, 12));
      const std::size_t n = loop_.run_until(deadline);
      record(kRunUntil, static_cast<std::int64_t>(n), loop_.stop_requested());
    } else if (k < 9'997) {
      const bool stepped = loop_.step();
      record(kStep, stepped, loop_.stop_requested());
    } else {
      const std::size_t n = loop_.run();
      record(kRun, static_cast<std::int64_t>(n), loop_.stop_requested());
    }
    loop_.clear_stop();
  }

  sim::Rng rng_;
  Loop loop_;
  int next_id_ = 0;
  std::vector<std::int64_t> trace_;
};

TEST(EventLoopDifferentialTest, MatchesReferenceModelOnRandomOperations) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const std::vector<std::int64_t> kernel =
        Script<KernelLoop>(seed).run(25'000);
    const std::vector<std::int64_t> model =
        Script<ModelLoop>(seed).run(25'000);
    const auto [k, m] =
        std::mismatch(kernel.begin(), kernel.end(), model.begin(), model.end());
    EXPECT_TRUE(k == kernel.end() && m == model.end())
        << "seed " << seed << ": first divergence in record "
        << (k - kernel.begin()) / 5 << " of " << kernel.size() / 5;
    EXPECT_GT(kernel.size(), 5u * 25'000);
  }
}

TEST(TimeTest, FormattingAndConversions) {
  EXPECT_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_EQ(to_millis(msec(7)), 7.0);
  EXPECT_EQ(sec_f(1.5), msec(1500));
  EXPECT_EQ(minutes(2), sec(120));
  EXPECT_EQ(hours(1), minutes(60));
  EXPECT_EQ(format_duration(msec(1500)), "1.500000s");
}

TEST(TimeTest, TimePointArithmetic) {
  TimePoint a{sec(10)};
  TimePoint b = a + sec(5);
  EXPECT_EQ(b - a, sec(5));
  EXPECT_LT(a, b);
  b += msec(1);
  EXPECT_EQ(b.since_start(), sec(15) + msec(1));
  EXPECT_EQ((b - sec(5)).since_start(), sec(10) + msec(1));
}

}  // namespace
}  // namespace qoed::sim
