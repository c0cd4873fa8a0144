// Streams time-stamped frame arrivals into a ChannelArbiter.
//
// Arbitrated scenarios and the tuner's access-delay cell know every
// frame's arrival up front: a transmitter, a size, and the instant the
// frame is handed to the channel. Scheduling one simulator callback per
// frame would park the whole workload in the event heap (1.4M entries for
// a 28-station, 120 s contended cell) and make every decision event sift
// through it. ArrivalFeed keeps the arrivals in one flat array instead and
// replays them itself: before each arrival it runs the simulator up to,
// but not including, the arrival's instant (Simulator::run_before), then
// enqueues the frame directly into the arbiter. The event heap only ever
// holds live decision events.
//
// Order contract: arrivals replay in (time, push order). Every simulator
// event strictly earlier than an arrival fires before it; an event at the
// same instant fires after every arrival at that instant. This is exactly
// the order one pre-scheduled callback per arrival produced (arrivals were
// pushed before the run, so their sequence numbers preceded every
// decision event's), so on-air times, drops, and access delays are
// unchanged.
//
// Pushes that are already time-ordered (a station's own trace) form one
// *run*; replay k-way merges the runs, ties going to the earlier push, so
// no sort is needed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "mac/frame.h"
#include "sim/channel/channel_arbiter.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace reshape::sim::channel {

/// Replays frame arrivals into a ChannelArbiter under the order contract
/// above.
class ArrivalFeed {
 public:
  /// One frame handed to the channel at `time` by `station`.
  struct Arrival {
    util::TimePoint time;
    std::uint32_t station = 0;
    std::uint32_t size_bytes = 0;
    std::uint64_t tag = 0;  // caller's reference, handed back on air/drop
  };

  /// The frame of `arrival` went on air (frame.timestamp is the on-air
  /// instant) after `access_delay` in the arbiter.
  using OnAir = std::function<void(const Arrival& arrival,
                                   const mac::Frame& frame,
                                   util::Duration access_delay)>;

  /// The frame of `arrival` was dropped at the retry limit.
  using OnDrop = std::function<void(const Arrival& arrival)>;

  // The arbiter keys its stations on the feed's identity addresses.
  ArrivalFeed() = default;
  ArrivalFeed(const ArrivalFeed&) = delete;
  ArrivalFeed& operator=(const ArrivalFeed&) = delete;

  /// Registers a transmitting station at `position`; returns its index.
  std::uint32_t add_station(Position position);

  /// Appends an arrival. Any time order is accepted; replay sorts by
  /// (time, push order).
  void push(util::TimePoint time, std::uint32_t station,
            std::uint32_t size_bytes, std::uint64_t tag = 0);

  [[nodiscard]] std::size_t size() const { return arrivals_.size(); }

  /// Replays every pushed arrival into `arbiter` under the order contract
  /// above, then runs `simulator` dry. `arbiter` must run on `simulator`,
  /// and the feed's stations must be its only transmitters: the feed
  /// holds the arbiter's on-air and drop hooks while it runs (clearing
  /// them on return) and maps each resolved frame back to its arrival; a
  /// frame from any other transmitter throws std::invalid_argument.
  /// A feed replays once.
  void run(Simulator& simulator, ChannelArbiter& arbiter, OnAir on_air = {},
           OnDrop on_drop = {});

 private:
  struct Station final : RadioListener {
    void on_frame(const mac::Frame&, double) override {}

    Position position;
    std::uint32_t arrivals = 0;  // pushed for this station
    // In-flight window of this station's slice of in_flight_: arrivals
    // [first + resolved, first + enqueued) sit in the arbiter's FIFO.
    std::uint32_t first = 0;
    std::uint32_t enqueued = 0;
    std::uint32_t resolved = 0;
  };

  /// The arrival at the head of `transmitter`'s arbiter FIFO, popped.
  [[nodiscard]] const Arrival& resolve(const RadioListener* transmitter);

  // One array, fixed once run() starts: an identity's offset in it is its
  // station index.
  std::vector<Station> stations_;
  std::vector<Arrival> arrivals_;
  std::vector<std::uint32_t> run_starts_{0};  // push index of each run
  std::vector<std::uint32_t> in_flight_;      // arrival indices, per station
  bool replayed_ = false;
};

}  // namespace reshape::sim::channel
