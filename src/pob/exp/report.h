// The machine-readable side of a run: the flat --json report CI archives as
// BENCH_*.json, the host fields a throughput number needs to be read, and
// the --sweep job list.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pob/exp/cli.h"

namespace pob {

/// A flat JSON object a driver fills with its headline numbers and writes
/// via --json=<path> (CI uploads these as artifacts, so throughput history
/// survives the build logs). Values render on insertion; insertion order is
/// preserved. Keys and strings must not need JSON escaping — run metadata
/// never does.
class JsonReport {
 public:
  JsonReport& count(const std::string& key, std::uint64_t value);
  JsonReport& num(const std::string& key, double value);
  JsonReport& str(const std::string& key, const std::string& value);
  JsonReport& flag(const std::string& key, bool value);
  /// The certificate pair every certified report emits under the same keys,
  /// so CI can grep `certified_price` out of any BENCH_*.json: the pob/flow
  /// oracle's lower bound T* and the simulated-T / T* ratio.
  JsonReport& certified(std::uint64_t lower_bound, double price) {
    return count("certified_lower_bound", lower_bound).num("certified_price", price);
  }

  /// Writes to the --json=<path> flag's target (nothing when the flag is
  /// absent). Returns false, with a note on stderr, when the file cannot be
  /// opened.
  bool write(const Args& args) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The visible hardware concurrency and the container CPU quota in
/// (possibly fractional) cores, from cgroup v2 (cpu.max) or v1
/// (cpu.cfs_quota_us / cpu.cfs_period_us), 0 when unlimited or
/// undetectable. CI runners often cap CPU well below the thread count, and
/// a jobs sweep is bounded by the quota, so a report records both.
JsonReport& add_host_fields(JsonReport& json);

/// This process's peak resident set in KiB, 0 where getrusage is missing.
std::uint64_t peak_rss_kb();

/// The effective job counts of --sweep=1,2,4,8, or just --jobs without it.
/// jobs_from_flag clamps oversized requests to 4x the core count, so on
/// small hosts several requested values can collapse to the same effective
/// job count — dedupe to keep one run (and one JSON field group) per value.
std::vector<unsigned> sweep_jobs(const Args& args);

/// The index of the sweep point speedups are measured against: the
/// jobs == 1 entry wherever it sits in the list, falling back to the first
/// entry when no serial point ran. sweep_jobs clamps oversized requests and
/// dedupes collapsed values, so a requested "1" can be absent (or present
/// but not first) in the effective list; speedups must normalize against
/// the real serial run when there is one.
std::size_t sweep_baseline_index(const std::vector<unsigned>& jobs);

}  // namespace pob
