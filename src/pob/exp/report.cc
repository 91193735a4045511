#include "pob/exp/report.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "pob/exp/parallel.h"

#if __has_include(<sys/resource.h>)
#include <sys/resource.h>
#endif

namespace pob {
namespace {

double cpu_quota_cores() {
  if (std::ifstream v2("/sys/fs/cgroup/cpu.max"); v2) {
    std::string quota;
    long period = 0;
    if ((v2 >> quota >> period) && quota != "max" && period > 0) {
      try {
        return std::stod(quota) / static_cast<double>(period);
      } catch (const std::exception&) {
        return 0.0;
      }
    }
    return 0.0;
  }
  std::ifstream q("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream p("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  long quota = 0;
  long period = 0;
  if ((q >> quota) && (p >> period) && quota > 0 && period > 0) {
    return static_cast<double>(quota) / static_cast<double>(period);
  }
  return 0.0;
}

}  // namespace

JsonReport& JsonReport::count(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonReport& JsonReport::num(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed << value;
  fields_.emplace_back(key, os.str());
  return *this;
}

JsonReport& JsonReport::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, '"' + value + '"');
  return *this;
}

JsonReport& JsonReport::flag(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

bool JsonReport::write(const Args& args) const {
  const std::string path = args.get_string("json", "");
  if (path.empty()) return true;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  os << "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) os << ", ";
    os << '"' << fields_[i].first << "\": " << fields_[i].second;
  }
  os << "}\n";
  std::cout << "# wrote " << path << "\n";
  return true;
}

JsonReport& add_host_fields(JsonReport& json) {
  return json.count("hw_threads", std::thread::hardware_concurrency())
      .num("cpu_quota_cores", cpu_quota_cores());
}

std::uint64_t peak_rss_kb() {
#if __has_include(<sys/resource.h>)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // ru_maxrss is KiB on Linux (bytes on macOS; close enough for a trend
    // line, and this repo's CI is Linux).
    return static_cast<std::uint64_t>(usage.ru_maxrss);
  }
#endif
  return 0;
}

std::vector<unsigned> sweep_jobs(const Args& args) {
  std::vector<unsigned> sweep;
  for (const std::int64_t j : args.get_int_list("sweep", {})) {
    const unsigned jobs = jobs_from_flag(j);
    if (std::find(sweep.begin(), sweep.end(), jobs) == sweep.end()) {
      sweep.push_back(jobs);
    }
  }
  if (sweep.empty()) sweep.push_back(jobs_from_flag(args.get_int("jobs", 0)));
  return sweep;
}

std::size_t sweep_baseline_index(const std::vector<unsigned>& jobs) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i] == 1) return i;
  }
  return 0;
}

}  // namespace pob
