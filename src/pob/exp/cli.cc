#include "pob/exp/cli.h"

#include <charconv>
#include <limits>
#include <stdexcept>

namespace pob {
namespace {

/// Parses all of `text` as a T, or throws naming the flag.
template <typename T>
T parse_number(std::string_view flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(
        "--" + std::string(flag) + "=" + text +
        (ec == std::errc::result_out_of_range ? ": out of range" : ": not a number"));
  }
  return value;
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + token);
    }
    token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      values_[token.substr(0, eq)].text = token.substr(eq + 1);
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      values_[token].text = argv[++i];
    } else {
      values_[token].text = "";  // bare boolean flag
    }
  }
}

const std::string* Args::find(std::string_view flag) const {
  const auto it = values_.find(flag);
  if (it == values_.end()) return nullptr;
  it->second.read.store(true, std::memory_order_relaxed);
  return &it->second.text;
}

bool Args::has(std::string_view flag) const { return find(flag) != nullptr; }

std::int64_t Args::get_int(std::string_view flag, std::int64_t fallback) const {
  const std::string* v = find(flag);
  if (v == nullptr || v->empty()) return fallback;
  return parse_number<std::int64_t>(flag, *v);
}

std::uint32_t Args::get_u32(std::string_view flag, std::uint32_t fallback) const {
  const std::int64_t v = get_int(flag, fallback);
  if (v < 0 || v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("--" + std::string(flag) + "=" + std::to_string(v) +
                                ": must be in [0, 4294967295]");
  }
  return static_cast<std::uint32_t>(v);
}

std::uint64_t Args::get_u64(std::string_view flag, std::uint64_t fallback) const {
  const std::string* v = find(flag);
  if (v == nullptr || v->empty()) return fallback;
  return parse_number<std::uint64_t>(flag, *v);
}

double Args::get_double(std::string_view flag, double fallback) const {
  const std::string* v = find(flag);
  if (v == nullptr || v->empty()) return fallback;
  return parse_number<double>(flag, *v);
}

std::string Args::get_string(std::string_view flag, std::string_view fallback) const {
  const std::string* v = find(flag);
  return v == nullptr ? std::string(fallback) : *v;
}

bool Args::get_bool(std::string_view flag, bool fallback) const {
  const std::string* v = find(flag);
  if (v == nullptr) return fallback;
  if (v->empty() || *v == "true" || *v == "1") return true;
  if (*v == "false" || *v == "0") return false;
  throw std::invalid_argument("--" + std::string(flag) + "=" + *v +
                              ": expected true or false");
}

std::vector<std::int64_t> Args::get_int_list(std::string_view flag,
                                             std::vector<std::int64_t> fallback) const {
  const std::string* v = find(flag);
  if (v == nullptr || v->empty()) return fallback;
  std::vector<std::int64_t> out;
  std::string current;
  for (const char ch : *v + ",") {
    if (ch == ',') {
      if (!current.empty()) out.push_back(parse_number<std::int64_t>(flag, current));
      current.clear();
    } else {
      current.push_back(ch);
    }
  }
  return out;
}

void Args::reject_unknown(std::initializer_list<std::string_view> also_known) const {
  for (const auto& [flag, value] : values_) {
    if (value.read.load(std::memory_order_relaxed)) continue;
    bool known = false;
    for (const std::string_view k : also_known) known = known || k == flag;
    if (!known) throw std::invalid_argument("unknown flag --" + flag);
  }
}

BlockPolicy parse_policy(const Args& args) {
  const std::string p = args.get_string("policy", "random");
  if (p == "random") return BlockPolicy::kRandom;
  if (p == "rarest" || p == "rarest-first") return BlockPolicy::kRarestFirst;
  throw std::invalid_argument("unknown --policy=" + p + " (random | rarest)");
}

}  // namespace pob
