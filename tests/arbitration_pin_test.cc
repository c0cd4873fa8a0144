// Pinned digests of DCF-arbitrated output: the on-air traces of small
// instances of every arbitrated scenario family, and one tuner
// access-delay cell. The digests are committed constants, so any change
// to arbitration order, on-air timestamps, drops, or access-delay
// samples fails here across builds and commits, not only within one
// process. A change that moves them on purpose updates the constant and
// says why in CHANGES.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/tuning/evaluator.h"
#include "core/tuning/presets.h"
#include "runtime/evaluation_backend.h"
#include "runtime/scenario.h"
#include "util/rng.h"

namespace reshape {
namespace {

using util::Duration;

/// FNV-1a over a stream of 64-bit words, printed as 16 hex digits.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (word >> (8 * byte)) & 0xFFU;
      state_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(state_));
    return buffer;
  }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

struct TraceDigest {
  std::string hex;
  std::uint64_t records = 0;
};

/// Digest of every record (time, size, direction) of every trace, with
/// each trace's app and length folded in ahead of its records.
TraceDigest digest_of(const std::vector<traffic::Trace>& traces) {
  Digest digest;
  TraceDigest out;
  for (const traffic::Trace& trace : traces) {
    digest.add(traffic::app_index(trace.app()));
    digest.add(trace.size());
    for (const traffic::PacketRecord& r : trace.records()) {
      digest.add(static_cast<std::uint64_t>(r.time.count_us()));
      digest.add(r.size_bytes);
      digest.add(static_cast<std::uint64_t>(r.direction));
    }
    out.records += trace.size();
  }
  out.hex = digest.hex();
  return out;
}

TraceDigest generate(const runtime::Scenario& scenario, std::uint64_t seed) {
  util::Rng rng{seed};
  return digest_of(scenario.generate(rng));
}

TEST(ArbitrationPinTest, ContendedCell) {
  const TraceDigest d =
      generate(runtime::contended_cell(28, Duration::seconds(5.0)), 11);
  EXPECT_EQ(d.records, 18275U);
  EXPECT_EQ(d.hex, "9a89fd4798b6130c");
}

TEST(ArbitrationPinTest, SaturatedApDownlink) {
  // The AP transmitter is fed every client's downlink records, out of
  // time order across clients.
  const TraceDigest d =
      generate(runtime::saturated_ap_downlink(3, Duration::seconds(10.0)), 12);
  EXPECT_EQ(d.records, 9463U);
  EXPECT_EQ(d.hex, "df30c11649cdc5d4");
}

TEST(ArbitrationPinTest, AdaptiveRoamingRetrainTwoCells) {
  const TraceDigest d = generate(
      runtime::adaptive_roaming_retrain(4, Duration::seconds(20.0)), 13);
  EXPECT_EQ(d.records, 29062U);
  EXPECT_EQ(d.hex, "bd23a88a04eac225");
}

TEST(ArbitrationPinTest, DenseWlanFewHundredStations) {
  const TraceDigest d =
      generate(runtime::dense_wlan_10k(300, Duration::seconds(10.0)), 14);
  EXPECT_EQ(d.records, 4149U);
  EXPECT_EQ(d.hex, "0bf408b705f2253c");
}

TEST(ArbitrationPinTest, TunerAccessDelayCell) {
  core::tuning::TunerSpec spec;
  spec.seed = 0x7C7E5;
  spec.bootstrap.seed = 20110620;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = Duration::seconds(20.0);
  spec.attacker.cadence = Duration::seconds(10.0);
  spec.scenario = runtime::tuned_vs_table5(28, Duration::seconds(5.0));
  core::tuning::CandidateEvaluator evaluator{spec};
  evaluator.train();
  const core::tuning::TunedConfiguration candidate =
      core::tuning::to_tuned_configuration(
          core::tuning::recommend_parameters(3, 0));
  const runtime::CellGrid grid{1, 1, 1};
  const core::tuning::CandidateShardOutcome outcome =
      evaluator.evaluate_cell(candidate, grid, 0);

  Digest digest;
  for (const double us : outcome.access_delay_us) {
    digest.add(std::bit_cast<std::uint64_t>(us));
  }
  digest.add(outcome.frames_dropped);
  const core::online::StreamingStats& s = outcome.streaming;
  digest.add(s.packets);
  digest.add(s.original_bytes);
  digest.add(s.added_bytes);
  digest.add(s.deadline_misses);
  digest.add(static_cast<std::uint64_t>(s.total_queueing_delay.count_us()));
  digest.add(static_cast<std::uint64_t>(s.max_queueing_delay.count_us()));
  digest.add(static_cast<std::uint64_t>(s.airtime_busy.count_us()));
  digest.add(s.max_queue_depth);

  EXPECT_EQ(outcome.access_delay_us.size(), 64086U);
  EXPECT_EQ(outcome.frames_dropped, 0U);
  EXPECT_EQ(digest.hex(), "849fb03e04bb82f1");
}

}  // namespace
}  // namespace reshape
