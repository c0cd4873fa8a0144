// Unit tests for src/sim: event ordering, clock semantics, and the
// broadcast medium with its RSSI model.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace reshape::sim {
namespace {

using util::Duration;
using util::TimePoint;

// ---------------------------------------------------------- EventQueue ---

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(TimePoint::from_seconds(3.0), [&] { order.push_back(3); });
  q.push(TimePoint::from_seconds(1.0), [&] { order.push_back(1); });
  q.push(TimePoint::from_seconds(2.0), [&] { order.push_back(2); });
  while (!q.empty()) {
    q.pop()();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  const auto t = TimePoint::from_seconds(1.0);
  for (int i = 0; i < 10; ++i) {
    q.push(t, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.pop()();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueueTest, MixedTypedAndCallbackEventsMatchReferenceOrder) {
  // Property test for the arena-backed queue: a random schedule of typed
  // (EventHandler) and callback events — with deliberate timestamp ties —
  // must fire in exactly the order of a reference model (stable sort by
  // time, insertion order breaking ties). The arena slots, free-list
  // reuse, and typed/callback mixing must never leak into ordering.
  struct Recorder final : EventHandler {
    std::vector<std::uint64_t>* fired;
    void on_event(std::uint64_t a, std::uint64_t) override {
      fired->push_back(a);
    }
  };

  util::Rng rng{20110703};
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    std::vector<std::uint64_t> fired;
    Recorder recorder;
    recorder.fired = &fired;

    constexpr std::uint64_t kEvents = 200;
    std::vector<std::pair<std::int64_t, std::uint64_t>> reference;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      // Few distinct timestamps -> dense ties across event kinds.
      const std::int64_t when_us = rng.uniform_int(0, 9) * 1000;
      const TimePoint when = TimePoint::from_microseconds(when_us);
      if (rng.uniform_int(0, 1) == 0) {
        q.push_event(when, recorder, i);
      } else {
        q.push(when, [&fired, i] { fired.push_back(i); });
      }
      reference.emplace_back(when_us, i);
    }
    std::stable_sort(reference.begin(), reference.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    // Alternate both drain paths; dispatch_next and pop must agree.
    while (!q.empty()) {
      if (fired.size() % 2 == 0) {
        q.dispatch_next();
      } else {
        q.pop()();
      }
    }

    ASSERT_EQ(fired.size(), kEvents);
    for (std::size_t i = 0; i < kEvents; ++i) {
      EXPECT_EQ(fired[i], reference[i].second) << "round " << round
                                               << " position " << i;
    }
  }
}

TEST(EventQueueTest, EmptyQueueThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), std::invalid_argument);
  EXPECT_THROW((void)q.next_time(), std::invalid_argument);
}

TEST(EventQueueTest, RejectsNullCallback) {
  EventQueue q;
  EXPECT_THROW(q.push(TimePoint{}, EventQueue::Callback{}),
               std::invalid_argument);
}

// ----------------------------------------------------------- Simulator ---

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen;
  sim.schedule_at(TimePoint::from_seconds(2.5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint::from_seconds(2.5));
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] {
    times.push_back(sim.now().to_seconds());
    sim.schedule_after(Duration::seconds(0.5),
                       [&] { times.push_back(sim.now().to_seconds()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] { ++fired; });
  sim.schedule_at(TimePoint::from_seconds(5.0), [&] { ++fired; });
  sim.run_until(TimePoint::from_seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::from_seconds(2.0));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunBeforeLeavesEventsAtTheInstantPending) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(TimePoint::from_microseconds(10), [&] { fired.push_back(1); });
  sim.schedule_at(TimePoint::from_microseconds(20), [&] { fired.push_back(2); });
  sim.schedule_at(TimePoint::from_microseconds(30), [&] { fired.push_back(3); });
  sim.run_before(TimePoint::from_microseconds(20));
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), TimePoint::from_microseconds(20));
  EXPECT_EQ(sim.events_processed(), 1U);

  // Work injected at the instant runs ahead of the event pending there,
  // and an event it schedules for that instant fires after it too.
  fired.push_back(20);
  sim.schedule_at(TimePoint::from_microseconds(20),
                  [&] { fired.push_back(21); });
  sim.run_before(TimePoint::from_microseconds(20));  // same instant: no-op
  EXPECT_EQ(fired, (std::vector<int>{1, 20}));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 20, 2, 21, 3}));
}

TEST(SimulatorTest, RunBeforeAdvancesAnIdleClockAndRejectsThePast) {
  Simulator sim;
  sim.run_before(TimePoint::from_seconds(3.0));
  EXPECT_EQ(sim.now(), TimePoint::from_seconds(3.0));
  EXPECT_EQ(sim.events_processed(), 0U);
  EXPECT_THROW(sim.run_before(TimePoint::from_seconds(1.0)),
               std::invalid_argument);
}

TEST(SimulatorTest, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(TimePoint::from_seconds(2.0), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint::from_seconds(1.0), [] {}),
               std::invalid_argument);
}

TEST(SimulatorTest, RecursiveSchedulingRunsToCompletion) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) {
      sim.schedule_after(Duration::milliseconds(10), tick);
    }
  };
  sim.schedule_at(TimePoint{}, tick);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 0.99);
}

// ------------------------------------------------------------- Medium ---

class RecordingListener : public RadioListener {
 public:
  void on_frame(const mac::Frame& frame, double rssi_dbm) override {
    frames.push_back(frame);
    rssi.push_back(rssi_dbm);
  }
  std::vector<mac::Frame> frames;
  std::vector<double> rssi;
};

PathLossModel deterministic_model() {
  PathLossModel m;
  m.shadowing_sigma_db = 0.0;
  return m;
}

mac::Frame frame_on_channel(int channel) {
  mac::Frame f;
  f.channel = channel;
  f.size_bytes = 500;
  return f;
}

TEST(MediumTest, DeliversOnlyOnMatchingChannel) {
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener on_ch1;
  RecordingListener on_ch6;
  medium.attach(on_ch1, Position{1.0, 0.0}, 1);
  medium.attach(on_ch6, Position{1.0, 0.0}, 6);
  medium.transmit(frame_on_channel(1), Position{0.0, 0.0});
  EXPECT_EQ(on_ch1.frames.size(), 1u);
  EXPECT_TRUE(on_ch6.frames.empty());
}

TEST(MediumTest, ExcludesTransmitter) {
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener tx;
  RecordingListener rx;
  medium.attach(tx, Position{0.0, 0.0}, 1);
  medium.attach(rx, Position{1.0, 0.0}, 1);
  medium.transmit(frame_on_channel(1), Position{0.0, 0.0}, &tx);
  EXPECT_TRUE(tx.frames.empty());
  EXPECT_EQ(rx.frames.size(), 1u);
}

TEST(MediumTest, RssiFallsWithDistance) {
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener near;
  RecordingListener far;
  medium.attach(near, Position{1.0, 0.0}, 1);
  medium.attach(far, Position{100.0, 0.0}, 1);
  medium.transmit(frame_on_channel(1), Position{0.0, 0.0});
  ASSERT_EQ(near.rssi.size(), 1u);
  ASSERT_EQ(far.rssi.size(), 1u);
  EXPECT_GT(near.rssi[0], far.rssi[0]);
  // 15 dBm - 40 dB at 1 m, exponent 3 => -25 dBm at 1 m, -85 dBm at 100 m.
  EXPECT_NEAR(near.rssi[0], -25.0, 1e-9);
  EXPECT_NEAR(far.rssi[0], -85.0, 1e-9);
}

TEST(MediumTest, ShadowingAddsZeroMeanNoise) {
  PathLossModel m;
  m.shadowing_sigma_db = 4.0;
  Medium medium{m, util::Rng{7}};
  RecordingListener rx;
  medium.attach(rx, Position{10.0, 0.0}, 1);
  for (int i = 0; i < 2000; ++i) {
    medium.transmit(frame_on_channel(1), Position{0.0, 0.0});
  }
  util::RunningStats stats;
  for (const double r : rx.rssi) {
    stats.add(r);
  }
  EXPECT_NEAR(stats.mean(), 15.0 - 40.0 - 30.0, 0.5);  // exponent 3, 10 m
  EXPECT_NEAR(stats.stddev(), 4.0, 0.5);
}

TEST(MediumTest, SetChannelRetunes) {
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener rx;
  medium.attach(rx, Position{1.0, 0.0}, 1);
  EXPECT_EQ(medium.channel_of(rx), 1);
  medium.set_channel(rx, 11);
  medium.transmit(frame_on_channel(1), Position{0.0, 0.0});
  EXPECT_TRUE(rx.frames.empty());
  medium.transmit(frame_on_channel(11), Position{0.0, 0.0});
  EXPECT_EQ(rx.frames.size(), 1u);
}

TEST(MediumTest, DetachStopsDelivery) {
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener rx;
  medium.attach(rx, Position{1.0, 0.0}, 1);
  medium.detach(rx);
  medium.transmit(frame_on_channel(1), Position{0.0, 0.0});
  EXPECT_TRUE(rx.frames.empty());
  EXPECT_EQ(medium.listener_count(), 0u);
}

TEST(MediumTest, ListenerMayDetachFromInsideOnFrame) {
  // Regression: Medium used to iterate entries_ directly while
  // delivering, so a listener detaching from inside on_frame()
  // invalidated the iterator mid-walk.
  Medium medium{deterministic_model(), util::Rng{1}};

  struct SelfDetacher : RadioListener {
    Medium* medium = nullptr;
    int frames = 0;
    void on_frame(const mac::Frame&, double) override {
      ++frames;
      medium->detach(*this);
    }
  };
  RecordingListener before;
  SelfDetacher detacher;
  detacher.medium = &medium;
  RecordingListener after;
  medium.attach(before, Position{1.0, 0.0}, 1);
  medium.attach(detacher, Position{2.0, 0.0}, 1);
  medium.attach(after, Position{3.0, 0.0}, 1);

  medium.transmit(frame_on_channel(1), Position{});
  // Everyone attached at transmit time got the frame; the walk survived
  // the mid-delivery detach.
  EXPECT_EQ(before.frames.size(), 1u);
  EXPECT_EQ(detacher.frames, 1);
  EXPECT_EQ(after.frames.size(), 1u);
  EXPECT_EQ(medium.listener_count(), 2u);

  medium.transmit(frame_on_channel(1), Position{});
  EXPECT_EQ(detacher.frames, 1);  // no longer attached
  EXPECT_EQ(before.frames.size(), 2u);
  EXPECT_EQ(after.frames.size(), 2u);
}

TEST(MediumTest, ListenerMayDetachAPeerFromInsideOnFrame) {
  // The detaching listener and the detached one need not be the same:
  // delivery is re-validated per target by attachment identity.
  Medium medium{deterministic_model(), util::Rng{1}};

  struct PeerDetacher : RadioListener {
    Medium* medium = nullptr;
    RadioListener* victim = nullptr;
    void on_frame(const mac::Frame&, double) override {
      if (victim != nullptr) {
        medium->detach(*victim);
        victim = nullptr;
      }
    }
  };
  PeerDetacher detacher;
  RecordingListener victim;
  detacher.medium = &medium;
  detacher.victim = &victim;
  medium.attach(detacher, Position{1.0, 0.0}, 1);
  medium.attach(victim, Position{2.0, 0.0}, 1);

  medium.transmit(frame_on_channel(1), Position{});
  // The victim was detached before its delivery slot: it never hears the
  // in-flight frame.
  EXPECT_TRUE(victim.frames.empty());
  EXPECT_EQ(medium.listener_count(), 1u);
}

TEST(MediumTest, ExcludeOfUnattachedTransmitterExcludesNobody) {
  // Exclusion resolves against attachment identity: a pointer that is
  // not attached (e.g. a raw scenario identity) silences no one.
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener rx;
  RecordingListener unattached;
  medium.attach(rx, Position{1.0, 0.0}, 1);
  medium.transmit(frame_on_channel(1), Position{}, &unattached);
  EXPECT_EQ(rx.frames.size(), 1u);
}

TEST(MediumTest, DoubleAttachThrows) {
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener rx;
  medium.attach(rx, Position{}, 1);
  EXPECT_THROW(medium.attach(rx, Position{}, 6), std::invalid_argument);
}

TEST(MediumTest, FrameCounterCounts) {
  Medium medium{deterministic_model(), util::Rng{1}};
  medium.transmit(frame_on_channel(1), Position{});
  medium.transmit(frame_on_channel(6), Position{});
  EXPECT_EQ(medium.frames_transmitted(), 2u);
}

TEST(PathLossTest, ClampsBelowReferenceDistance) {
  PathLossModel m = deterministic_model();
  util::Rng rng{1};
  EXPECT_DOUBLE_EQ(m.rssi_dbm(15.0, 0.001, rng), m.rssi_dbm(15.0, 1.0, rng));
}

}  // namespace
}  // namespace reshape::sim
