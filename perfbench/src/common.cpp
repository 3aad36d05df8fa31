#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>

namespace pb {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double calib_ms() {
  // Integer mixing plus a strided walk over 4 MiB: touches the ALU and the
  // cache hierarchy the way the simulator kernels do, with none of their code.
  static std::vector<std::uint64_t> buf(1u << 19, 1);
  std::vector<double> reps;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(rep);
    for (std::uint32_t i = 0; i < 3'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint64_t& slot = buf[(x >> 20) & (buf.size() - 1)];
      slot += x;
      sink += slot;
    }
    reps.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  buf[0] += sink;  // keep the loop observable
  return median(reps);
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::Setup: return "setup";
    case Phase::Timed: return "timed";
    case Phase::Probe: return "probe";
  }
  return "?";
}

int Tracer::begin(const char* name, std::int64_t job) {
  if (!on_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_ns(), 0, parent, job, phase_});
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::end(int idx) {
  if (idx < 0) return;
  spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  stack_.pop_back();
}

void Tracer::add(const char* name, std::int64_t job, std::uint64_t start,
                 std::uint64_t end, int parent) {
  if (!on_) return;
  spans_.push_back({name, start, end, parent, job, phase_});
}

void timed_phase(const Args& a, Tracer& tr, Report& r,
                 const std::function<std::optional<JobSample>(bool)>& job) {
  r.calib_before_ms = calib_ms();
  const std::uint64_t t0 = now_ns();
  const auto since = [&] { return static_cast<double>(now_ns() - t0) * 1e-9; };
  r.marks.push_back({0.0, cpu_seconds(), 0});
  for (std::size_t n = 0; since() < a.seconds; ++n) {
    const bool traced = a.trace && n % 2 == 1;
    tr.set_phase(traced ? Phase::Timed : Phase::Setup);
    const std::optional<JobSample> s = job(traced);
    tr.set_phase(Phase::Setup);
    if (!s) break;
    if (traced) {
      r.traced_latency_ms.push_back(s->ms);
      r.traced_kind.push_back(s->kind);
      r.traced_cost_ms.push_back(s->cost_ms);
      continue;
    }
    r.latency_ms.push_back(s->ms);
    r.latency_kind.push_back(s->kind);
    r.cost_ms.push_back(s->cost_ms);
    r.timed_ids.push_back(s->id);
    const double k = static_cast<double>(r.marks.size());
    if (r.marks.size() < kSlices && since() >= a.seconds * k / kSlices)
      r.marks.push_back({since(), cpu_seconds(), r.latency_ms.size()});
  }
  r.marks.push_back({since(), cpu_seconds(), r.latency_ms.size()});
  r.rss_mb = peak_rss_mb();
  r.calib_after_ms = calib_ms();
}

void Report::fail(std::string what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(what));
}

}  // namespace pb
