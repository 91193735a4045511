#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>
#include <utility>

namespace pobbench {

namespace {

double offset(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double>(t - origin).count();
}

// The calibration kernel's final states land here so the loop stays live.
std::atomic<std::uint32_t> calibration_sink{0};

}  // namespace

std::int32_t Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const double now = offset(origin_, Clock::now());
  spans_.push_back({name, now, now, parent});
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = offset(origin_, Clock::now());
  open_.pop_back();
}

void Tracer::record(const char* name, Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, offset(origin_, start), offset(origin_, end), parent});
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  // Children may overlap (trials run on several threads), so a parent's
  // covered time is the union of its children's intervals.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, reach = spans_[i].start;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      if (end > lo) covered += end - lo;
      reach = std::max(reach, end);
    }
    const double duration = spans_[i].end - spans_[i].start;
    Totals& t = out[spans_[i].name];
    t.total += duration;
    t.self += duration - covered;
    ++t.count;
  }
  return out;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "index\tparent\tname\tstart_s\tend_s\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line, "%zu\t%d\t%s\t%.9f\t%.9f\n", i, s.parent, s.name, s.start,
                  s.end);
    out << line;
  }
  return static_cast<bool>(out);
}

double Samples::median(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return 0.0;
  std::vector<double> v = it->second;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::size_t Samples::count(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.size();
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double calibrate(unsigned jobs) {
  constexpr std::size_t kTable = std::size_t{1} << 20;  // 4 MiB per thread
  constexpr int kSteps = 1 << 24;
  std::vector<double> seconds(jobs, 0.0);
  const auto kernel = [&](unsigned t) {
    std::vector<std::uint32_t> table(kTable);
    for (std::size_t i = 0; i < kTable; ++i) {
      table[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    const Clock::time_point t0 = Clock::now();
    std::uint32_t x = t + 1;
    for (int i = 0; i < kSteps; ++i) {
      x ^= table[x & (kTable - 1)];
      x = x * 1664525u + 1013904223u;
      table[(x >> 7) & (kTable - 1)] += x;
    }
    seconds[t] = seconds_since(t0);
    calibration_sink.fetch_xor(x, std::memory_order_relaxed);
  };
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 1; t < jobs; ++t) threads.emplace_back(kernel, t);
    kernel(0);
  }  // joins
  return *std::max_element(seconds.begin(), seconds.end());
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cout << "# FAILED check: " << what << "\n";
}

}  // namespace pobbench
