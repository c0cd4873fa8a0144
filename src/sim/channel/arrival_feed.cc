#include "sim/channel/arrival_feed.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "util/check.h"

namespace reshape::sim::channel {

std::uint32_t ArrivalFeed::add_station(Position position) {
  util::require(!replayed_, "ArrivalFeed::add_station: feed already replayed");
  stations_.emplace_back().position = position;
  return static_cast<std::uint32_t>(stations_.size() - 1);
}

void ArrivalFeed::push(util::TimePoint time, std::uint32_t station,
                       std::uint32_t size_bytes, std::uint64_t tag) {
  util::require(!replayed_, "ArrivalFeed::push: feed already replayed");
  util::require(station < stations_.size(),
                "ArrivalFeed::push: unknown station");
  util::require(arrivals_.size() < std::numeric_limits<std::uint32_t>::max(),
                "ArrivalFeed::push: too many arrivals");
  if (!arrivals_.empty() && time < arrivals_.back().time) {
    run_starts_.push_back(static_cast<std::uint32_t>(arrivals_.size()));
  }
  arrivals_.push_back(Arrival{time, station, size_bytes, tag});
  ++stations_[station].arrivals;
}

const ArrivalFeed::Arrival& ArrivalFeed::resolve(
    const RadioListener* transmitter) {
  // An address inside stations_ can only be one of our identities.
  const std::less<const void*> before;
  const void* address = transmitter;
  util::require(!before(address, stations_.data()) &&
                    before(address, stations_.data() + stations_.size()),
                "ArrivalFeed: frame from a transmitter the feed does not own");
  Station& station =
      stations_[static_cast<std::size_t>(
          static_cast<const Station*>(transmitter) - stations_.data())];
  util::internal_check(station.resolved < station.enqueued,
                       "ArrivalFeed: resolved a frame it never enqueued");
  return arrivals_[in_flight_[station.first + station.resolved++]];
}

void ArrivalFeed::run(Simulator& simulator, ChannelArbiter& arbiter,
                      OnAir on_air, OnDrop on_drop) {
  util::require(!replayed_, "ArrivalFeed::run: a feed replays once");
  replayed_ = true;

  // Per-station slices of in_flight_, in station order. The arbiter keeps
  // each station's frames FIFO, so the k-th frame a station resolves (on
  // air or dropped) is the k-th it was handed.
  std::uint32_t offset = 0;
  for (Station& station : stations_) {
    station.first = offset;
    offset += station.arrivals;
  }
  in_flight_.resize(arrivals_.size());

  arbiter.set_on_air_hook([&](const mac::Frame& frame, util::Duration delay,
                              const RadioListener* transmitter) {
    const Arrival& arrival = resolve(transmitter);
    if (on_air) {
      on_air(arrival, frame, delay);
    }
  });
  arbiter.set_drop_hook(
      [&](const mac::Frame&, const RadioListener* transmitter) {
        const Arrival& arrival = resolve(transmitter);
        if (on_drop) {
          on_drop(arrival);
        }
      });
  // The hooks capture this frame's locals; never let them outlive it.
  struct ClearHooks {
    ChannelArbiter& arbiter;
    ~ClearHooks() {
      arbiter.set_on_air_hook({});
      arbiter.set_drop_hook({});
    }
  } clear_hooks{arbiter};

  // K-way merge of the push runs. A head's `next` is a push index, so
  // ordering heads by (time, next) is exactly (time, push order).
  struct Head {
    std::int64_t time_us;
    std::uint32_t next;
    std::uint32_t end;
  };
  const auto later = [](const Head& a, const Head& b) {
    return a.time_us != b.time_us ? a.time_us > b.time_us : a.next > b.next;
  };
  std::vector<Head> heads;
  heads.reserve(run_starts_.size());
  for (std::size_t r = 0; r < run_starts_.size(); ++r) {
    const std::uint32_t begin = run_starts_[r];
    const auto end = r + 1 < run_starts_.size()
                         ? run_starts_[r + 1]
                         : static_cast<std::uint32_t>(arrivals_.size());
    if (begin < end) {
      heads.push_back(Head{arrivals_[begin].time.count_us(), begin, end});
    }
  }
  std::make_heap(heads.begin(), heads.end(), later);

  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    Head& head = heads.back();
    const std::uint32_t i = head.next++;
    if (head.next < head.end) {
      head.time_us = arrivals_[head.next].time.count_us();
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
    }

    const Arrival& arrival = arrivals_[i];
    simulator.run_before(arrival.time);
    Station& station = stations_[arrival.station];
    in_flight_[station.first + station.enqueued++] = i;
    mac::Frame frame;
    frame.size_bytes = arrival.size_bytes;
    frame.channel = arbiter.channel();
    arbiter.enqueue(std::move(frame), station.position, &station);
  }
  simulator.run();
}

}  // namespace reshape::sim::channel
