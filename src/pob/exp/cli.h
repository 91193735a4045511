// Minimal command-line flag parsing shared by the bench/example binaries.
// Accepts --key=value, --key value, and bare boolean --flag forms.
//
// Every getter records that its flag was read, so a driver that has read
// all of its flags can call reject_unknown() and refuse a mistyped or
// foreign flag instead of silently running without it.

#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
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

  /// Integer getters throw std::invalid_argument naming the flag when the
  /// value is not a whole integer in range.
  std::int64_t get_int(std::string_view flag, std::int64_t fallback) const;
  /// get_int restricted to [0, 2^32 - 1] (the node/block/capacity range).
  std::uint32_t get_u32(std::string_view flag, std::uint32_t fallback) const;
  /// Unsigned 64-bit (seeds); negative values are rejected, not wrapped.
  std::uint64_t get_u64(std::string_view flag, std::uint64_t fallback) const;
  double get_double(std::string_view flag, double fallback) const;
  std::string get_string(std::string_view flag, std::string_view fallback) const;
  /// Absent -> fallback; bare, "true" or "1" -> true; "false" or "0" -> false.
  bool get_bool(std::string_view flag, bool fallback) const;

  /// Comma-separated integer list, e.g. --degrees=10,20,40.
  std::vector<std::int64_t> get_int_list(std::string_view flag,
                                         std::vector<std::int64_t> fallback) const;

  /// Throws std::invalid_argument("unknown flag --X") for the first given
  /// flag that no getter has read and that is not in `also_known`.
  void reject_unknown(std::initializer_list<std::string_view> also_known = {}) const;

  const std::string& program() const { return program_; }

 private:
  struct Value {
    std::string text;
    mutable std::atomic<bool> read{false};  // getters may run on trial threads
  };
  /// The flag's value, marked read; nullptr when the flag was not given.
  const std::string* find(std::string_view flag) const;

  std::string program_;
  std::map<std::string, Value, std::less<>> values_;
};

/// --policy: "random" (the default), "rarest" or "rarest-first". Throws
/// std::invalid_argument on anything else, so a typo cannot silently run
/// a different protocol.
BlockPolicy parse_policy(const Args& args);

}  // namespace pob
