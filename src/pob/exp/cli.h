// Minimal command-line flag parsing shared by the bench/example binaries.
// Accepts --key=value, --key value, and bare boolean --flag forms.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pob/rand/randomized.h"

namespace pob {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(std::string_view flag) const;
  std::int64_t get_int(std::string_view flag, std::int64_t fallback) const;
  double get_double(std::string_view flag, double fallback) const;
  std::string get_string(std::string_view flag, std::string_view fallback) const;

  /// Comma-separated integer list, e.g. --degrees=10,20,40.
  std::vector<std::int64_t> get_int_list(std::string_view flag,
                                         std::vector<std::int64_t> fallback) const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string, std::less<>> values_;
};

/// --policy: "random" (the default), "rarest" or "rarest-first". Throws
/// std::invalid_argument on anything else, so a typo cannot silently run
/// a different protocol.
BlockPolicy parse_policy(const Args& args);

}  // namespace pob
