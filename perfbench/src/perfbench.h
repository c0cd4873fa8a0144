// Shared pieces of the repository benchmark: clocks and process counters,
// the in-memory span recorder of traced runs, cell digests, and the
// interface every workload implements.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "ml/metrics.h"

namespace perfbench {

/// Monotonic seconds.
[[nodiscard]] double now_s();

/// Process-wide resource counters: own usage plus that of every reaped
/// child (fork-mode shard workers).
struct ProcSample {
  double cpu_s = 0.0;
  std::int64_t minflt = 0;
  std::int64_t maxrss_kb = 0;  // max over this process and reaped children
};
[[nodiscard]] ProcSample proc_sample();

/// One recorded span: a layer call made from the benchmark's own code.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t run = 0;  // which traced iteration it belongs to
};

/// Keeps spans in memory; written out once when the run ends.
class Tracer {
 public:
  [[nodiscard]] std::int32_t open(const char* name);
  void close(std::int32_t id);
  void next_run() { ++run_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t run_ = 0;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_{tracer}, id_{tracer != nullptr ? tracer->open(name) : -1} {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->close(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// FNV-1a over the fields of a result, for per-cell and report digests.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  void add(const reshape::ml::ConfusionMatrix& m);
  void add(const reshape::eval::DefenseEvaluation& e);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};
[[nodiscard]] std::string digest_of(const std::string& text);

/// What one timed pass produced.
struct PassOutcome {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t minflt = 0;
  std::size_t sessions = 0;
  std::vector<std::string> cell_digests;  // in cell order
  std::size_t lost_cells = 0;  // cells of failed worker ranges
  std::size_t worker_failures = 0;
  std::string report_digest;
  std::string telemetry_digest;  // empty where telemetry is off
};

/// Exact work counts of one pass, keyed by metric name.
using Counts = std::map<std::string, std::uint64_t>;

/// One benchmark workload. The engine is rebuilt by every setup(), so no
/// memoized workload or privacy probe carries from one pass to the next.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One untimed set-up and pass, so the timed passes start on a host
  /// (and, for sharded runs, a worker count) already up to speed.
  void warm() {
    setup(nullptr);
    (void)pass(nullptr);
  }

  /// Builds a fresh engine and trains or profiles it.
  virtual void setup(Tracer* tracer) = 0;

  /// Runs the grid once on the engine setup() built. With a tracer, the
  /// pass is driven through the engine's finer public calls with a span
  /// around each.
  [[nodiscard]] virtual PassOutcome pass(Tracer* tracer) = 0;

  /// Calls each layer's public functions on the workload's own inputs and
  /// returns the exact counts; spans are recorded only with a tracer.
  /// Requires a fresh setup(): the in-process twin of a sharded run must
  /// generate its own workloads. Throws on a disagreement between the
  /// replay and the engine.
  [[nodiscard]] virtual Counts layers(Tracer* tracer) = 0;

  /// Layer span names whose self time counts as attributed work.
  [[nodiscard]] virtual std::vector<std::string> leaf_layers() const = 0;

  /// Wall time of the last single-thread engine pass a traced layers()
  /// or pass() call made, the denominator of trace.unattributed_frac.
  [[nodiscard]] virtual double reference_pass_s() const = 0;

  /// Cell digests every pass must reproduce when the workload has an
  /// independent reference (the in-process twin of a sharded run); empty
  /// means the first pass is the reference.
  [[nodiscard]] virtual const std::vector<std::string>& reference_cells()
      const {
    static const std::vector<std::string> none;
    return none;
  }
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);
[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench
