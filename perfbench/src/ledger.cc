#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>

#include "perfbench.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

ProcSample proc_sample() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  ProcSample s;
  s.cpu_s = seconds_of(self.ru_utime) + seconds_of(self.ru_stime) +
            seconds_of(children.ru_utime) + seconds_of(children.ru_stime);
  s.minflt = self.ru_minflt + children.ru_minflt;
  s.maxrss_kb = std::max(self.ru_maxrss, children.ru_maxrss);
  return s;
}

std::int32_t Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Scopes nest, so the closing span is always the innermost open one.
  stack_.pop_back();
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const reshape::ml::ConfusionMatrix& m) {
  add(static_cast<std::uint64_t>(m.num_classes()));
  for (int t = 0; t < m.num_classes(); ++t) {
    for (int p = 0; p < m.num_classes(); ++p) {
      add(m.count(t, p));
    }
  }
}

void Digest::add(const reshape::eval::DefenseEvaluation& e) {
  add(e.classifier_name);
  add(e.confusion);
  for (std::size_t i = 0; i < e.accuracy.size(); ++i) {
    add(e.accuracy[i]);
    add(e.false_positive[i]);
    add(e.overhead[i]);
  }
  add(e.mean_accuracy);
  add(e.mean_false_positive);
  add(e.mean_overhead);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string digest_of(const std::string& text) {
  Digest d;
  d.add(text);
  return d.hex();
}

}  // namespace perfbench
