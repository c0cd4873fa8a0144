// perfbench: one benchmark run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// Untraced runs rebuild the engine (set-up, timed as setup_s) and time
// one pass after another until --seconds of passes are measured, then
// replay the layers once, untimed, for the exact counts. Traced runs do
// the same and then repeat set-up + traced pass + traced layer replay for
// another --seconds, recording spans in memory; --spans-out receives them
// at exit. The result is one JSON line on stdout; perfbench/run.py checks
// it against the committed and cached digests and prints the final line.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument{"unknown flag " + key};
    }
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) {
    throw std::invalid_argument{"need --workload and --seconds > 0"};
  }
  return a;
}

std::string num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host facts: CPU model, online CPUs, and the /proc/stat jiffies the
/// steal share is taken from.
struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

CpuTimes cpu_times() {
  std::ifstream in{"/proc/stat"};
  std::string label;
  in >> label;
  CpuTimes t;
  unsigned long long field = 0;
  for (int i = 0; i < 8 && (in >> field); ++i) {
    t.total += field;
    if (i == 7) {
      t.steal = field;
    }
  }
  return t;
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Each span's self time (ns): its duration minus its children's.
std::vector<double> self_ns(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return self;
}

/// Per-name span statistics: durations (ms) and summed self time (ns).
struct SpanStats {
  std::vector<double> ms;
  double self_ns = 0.0;
};

std::map<std::string, SpanStats> span_stats(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = self_ns(spans);
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanStats& st = out[spans[i].name];
    st.ms.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) *
                    1e-6);
    st.self_ns += self[i];
  }
  return out;
}

/// Self time (s) of the given layer spans within one traced iteration.
double attributed_s(const Tracer& tracer, std::uint32_t run,
                    const std::set<std::string>& leaves) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = self_ns(spans);
  double ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].run == run && leaves.count(spans[i].name) != 0) {
      ns += self[i];
    }
  }
  return ns * 1e-9;
}

/// Median, the highest order statistic with at least ten samples above
/// it (only where that is at or above the median, n >= 20), and the
/// sample count.
std::string duration_json(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::ostringstream os;
  os << "{\"median\":" << num(median(v)) << ",\"n\":" << v.size();
  if (v.size() >= 20) {
    const std::size_t k = v.size() - 11;
    os << ",\"tail\":" << num(v[k]) << ",\"tail_pct\":"
       << num(100.0 * static_cast<double>(k + 1) /
              static_cast<double>(v.size()));
  }
  os << "}";
  return os.str();
}

void write_spans(const Tracer& tracer, const std::string& path) {
  std::ofstream out{path};
  out << "{\"spans\":[";
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}";
  }
  out << "]}\n";
}

int run(const Args& args) {
  const CpuTimes cpu0 = cpu_times();
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed);
  workload->warm();

  std::vector<PassOutcome> passes;
  std::vector<double> setups;
  double measured = 0.0;
  while (measured < args.seconds || passes.size() < 3) {
    const double t0 = now_s();
    workload->setup(nullptr);
    setups.push_back(now_s() - t0);
    passes.push_back(workload->pass(nullptr));
    measured += passes.back().wall_s;
  }
  const double peak_rss_mb =
      static_cast<double>(proc_sample().maxrss_kb) / 1024.0;

  workload->setup(nullptr);
  const Counts counts = workload->layers(nullptr);

  Tracer tracer;
  std::vector<PassOutcome> traced;
  std::vector<double> unattributed;
  bool counts_repeat = true;
  if (args.trace) {
    const std::set<std::string> leaves = [&] {
      const auto v = workload->leaf_layers();
      return std::set<std::string>(v.begin(), v.end());
    }();
    double elapsed = 0.0;
    for (std::uint32_t run = 0; run == 0 || elapsed < args.seconds; ++run) {
      const double t0 = now_s();
      workload->setup(&tracer);
      traced.push_back(workload->pass(&tracer));
      workload->setup(nullptr);
      counts_repeat &= workload->layers(&tracer) == counts;
      unattributed.push_back(1.0 - attributed_s(tracer, run, leaves) /
                                       workload->reference_pass_s());
      tracer.next_run();
      elapsed += now_s() - t0;
    }
  }
  const CpuTimes cpu1 = cpu_times();

  // Cell checks: every pass must reproduce the reference cell digests and
  // the first pass's report (and telemetry) digest.
  std::vector<PassOutcome> all = passes;
  all.insert(all.end(), traced.begin(), traced.end());
  const std::vector<std::string>& reference =
      workload->reference_cells().empty() ? passes.front().cell_digests
                                          : workload->reference_cells();
  std::vector<std::size_t> cell_ok(reference.size(), 0);
  std::size_t lost = 0;
  std::size_t failures = 0;
  for (const PassOutcome& p : all) {
    const bool whole = p.report_digest == passes.front().report_digest &&
                       p.telemetry_digest == passes.front().telemetry_digest &&
                       p.cell_digests.size() == reference.size();
    for (std::size_t c = 0; whole && c < reference.size(); ++c) {
      cell_ok[c] += p.cell_digests[c] == reference[c] ? 1 : 0;
    }
    lost += p.lost_cells;
    failures += p.worker_failures;
  }

  std::vector<double> rate;
  std::vector<double> cpu_ms;
  std::vector<double> minflt;
  for (const PassOutcome& p : passes) {
    const double sessions = static_cast<double>(p.sessions);
    rate.push_back(sessions / p.wall_s);
    cpu_ms.push_back(1e3 * p.cpu_s / sessions);
    minflt.push_back(static_cast<double>(p.minflt) / sessions);
  }

  std::ostringstream os;
  os << "{\"workload\":" << quoted(args.workload) << ",\"seed\":" << args.seed
     << ",\"passes\":" << passes.size() << ",\"traced_passes\":"
     << traced.size() << ",\"cells\":[";
  for (std::size_t c = 0; c < reference.size(); ++c) {
    os << (c == 0 ? "" : ",") << quoted(reference[c]);
  }
  os << "],\"cell_ok\":[";
  for (std::size_t c = 0; c < cell_ok.size(); ++c) {
    os << (c == 0 ? "" : ",") << cell_ok[c];
  }
  os << "],\"lost_cells\":" << lost
     << ",\"report_digest\":" << quoted(passes.front().report_digest)
     << ",\"telemetry_digest\":" << quoted(passes.front().telemetry_digest)
     << ",\"counts_repeat\":" << (counts_repeat ? "true" : "false")
     << ",\"counts\":{";
  bool first = true;
  for (const auto& [name, value] : counts) {
    os << (first ? "" : ",") << quoted(name) << ":" << value;
    first = false;
  }
  os << "},\"samples\":{\"sessions_per_s\":[";
  for (std::size_t i = 0; i < rate.size(); ++i) {
    os << (i == 0 ? "" : ",") << num(rate[i]);
  }
  os << "],\"cpu_ms_per_session\":[";
  for (std::size_t i = 0; i < cpu_ms.size(); ++i) {
    os << (i == 0 ? "" : ",") << num(cpu_ms[i]);
  }
  os << "],\"setup_s\":[";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    os << (i == 0 ? "" : ",") << num(setups[i]);
  }
  os << "]},\"end_to_end\":{\"sessions_per_s\":" << num(median(rate))
     << ",\"cpu_ms_per_session\":" << num(median(cpu_ms))
     << ",\"setup_s\":" << num(median(setups))
     << ",\"peak_rss_mb\":" << num(peak_rss_mb) << "}";

  const double steal =
      cpu1.total > cpu0.total
          ? static_cast<double>(cpu1.steal - cpu0.steal) /
                static_cast<double>(cpu1.total - cpu0.total)
          : 0.0;
  os << ",\"host\":{\"cpu_model\":" << quoted(cpu_model())
     << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
     << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
     << ",\"steal_frac\":" << num(steal) << "}";

  if (args.trace) {
    const std::map<std::string, SpanStats> stats = span_stats(tracer);
    const auto ms_median = [&](const char* name) {
      const auto it = stats.find(name);
      return it == stats.end() ? 0.0 : median(it->second.ms);
    };
    const auto self_ns = [&](const char* name) {
      const auto it = stats.find(name);
      return it == stats.end() ? 0.0 : it->second.self_ns;
    };
    const double iterations = static_cast<double>(traced.size());
    const auto per = [&](const char* span, const char* count, double scale) {
      const double n = static_cast<double>(counts.at(count)) * iterations;
      return n > 0.0 ? self_ns(span) * scale / n : 0.0;
    };
    std::vector<double> traced_rate;
    for (const PassOutcome& p : traced) {
      traced_rate.push_back(static_cast<double>(p.sessions) / p.wall_s);
    }
    const std::vector<std::pair<std::string, double>> layer = {
        {"traffic.generate_ms", ms_median("traffic.generate")},
        {"traffic.packets", static_cast<double>(counts.at("traffic.packets"))},
        {"sim.arbitrate_ms", ms_median("sim.arbitrate")},
        {"sim.frames_on_air",
         static_cast<double>(counts.at("sim.frames_on_air"))},
        {"sim.frames_dropped",
         static_cast<double>(counts.at("sim.frames_dropped"))},
        {"core.apply_defense_ms", ms_median("core.apply_defense")},
        {"core.ns_per_packet", per("core.apply_defense", "core.packets", 1.0)},
        {"core.flows", static_cast<double>(counts.at("core.flows"))},
        {"online.stream_ms", ms_median("online.stream")},
        {"online.ns_per_packet", per("online.stream", "online.packets", 1.0)},
        {"online.deadline_misses",
         static_cast<double>(counts.at("online.deadline_misses"))},
        {"features.extract_ms", ms_median("features.extract")},
        {"features.windows",
         static_cast<double>(counts.at("features.windows"))},
        {"features.ns_per_window",
         per("features.extract", "features.windows", 1.0)},
        {"attack.classify_ms", ms_median("attack.classify")},
        {"attack.us_per_window",
         per("attack.classify", "features.windows", 1e-3)},
        {"eval.train_s", ms_median("eval.train") * 1e-3},
        {"eval.evaluate_ms", ms_median("eval.evaluate")},
        {"audit.ms", ms_median("audit")},
        {"audit.ns_per_packet", per("audit", "audit.packets", 1.0)},
        {"adaptive.ms", ms_median("adaptive")},
        {"adaptive.epochs", static_cast<double>(counts.at("adaptive.epochs"))},
        {"tuning.train_s", ms_median("tuning.train") * 1e-3},
        {"tuning.evaluate_cell_ms", ms_median("tuning.evaluate_cell")},
        {"runtime.cell_ms", ms_median("runtime.cell")},
        {"runtime.fold_ms", ms_median("runtime.fold")},
        {"wire.encode_ms", ms_median("wire.encode")},
        {"wire.decode_ms", ms_median("wire.decode")},
        {"wire.bytes", static_cast<double>(counts.at("wire.bytes"))},
        {"shard.warm_s", ms_median("shard.warm") * 1e-3},
        {"shard.dispatch_s", ms_median("shard.dispatch") * 1e-3},
        {"shard.failures", static_cast<double>(failures)},
        {"proc.minflt_per_session", median(minflt)},
        {"trace.unattributed_frac", median(unattributed)},
        {"trace.overhead_frac", 1.0 - median(traced_rate) / median(rate)},
    };
    os << ",\"per_layer\":{";
    for (std::size_t i = 0; i < layer.size(); ++i) {
      os << (i == 0 ? "" : ",") << quoted(layer[i].first) << ":"
         << num(layer[i].second);
    }
    os << "},\"durations\":{";
    first = true;
    for (const auto& [name, st] : stats) {
      os << (first ? "" : ",") << quoted(name + "_ms") << ":"
         << duration_json(st.ms);
      first = false;
    }
    os << "}";
    if (!args.spans_out.empty()) {
      write_spans(tracer, args.spans_out);
    }
  }
  os << "}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
