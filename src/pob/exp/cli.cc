#include "pob/exp/cli.h"

#include <stdexcept>

namespace pob {

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
      values_[token.substr(0, eq)] = token.substr(eq + 1);
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      values_[token] = argv[++i];
    } else {
      values_[token] = "";  // bare boolean flag
    }
  }
}

bool Args::has(std::string_view flag) const { return values_.count(flag) > 0; }

std::int64_t Args::get_int(std::string_view flag, std::int64_t fallback) const {
  const auto it = values_.find(flag);
  if (it == values_.end() || it->second.empty()) return fallback;
  return std::stoll(it->second);
}

double Args::get_double(std::string_view flag, double fallback) const {
  const auto it = values_.find(flag);
  if (it == values_.end() || it->second.empty()) return fallback;
  return std::stod(it->second);
}

std::string Args::get_string(std::string_view flag, std::string_view fallback) const {
  const auto it = values_.find(flag);
  if (it == values_.end()) return std::string(fallback);
  return it->second;
}

std::vector<std::int64_t> Args::get_int_list(std::string_view flag,
                                             std::vector<std::int64_t> fallback) const {
  const auto it = values_.find(flag);
  if (it == values_.end() || it->second.empty()) return fallback;
  std::vector<std::int64_t> out;
  std::string current;
  for (const char ch : it->second + ",") {
    if (ch == ',') {
      if (!current.empty()) out.push_back(std::stoll(current));
      current.clear();
    } else {
      current.push_back(ch);
    }
  }
  return out;
}

BlockPolicy parse_policy(const Args& args) {
  const std::string p = args.get_string("policy", "random");
  if (p == "random") return BlockPolicy::kRandom;
  if (p == "rarest" || p == "rarest-first") return BlockPolicy::kRarestFirst;
  throw std::invalid_argument("unknown --policy=" + p + " (random | rarest)");
}

}  // namespace pob
