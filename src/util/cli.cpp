#include "util/cli.hpp"

#include <cstdlib>

#include "util/check.hpp"

namespace detcol {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_[arg.substr(2)] = "true";
        bare_.insert(arg.substr(2));
      } else {
        const std::string name = arg.substr(2, eq - 2);
        flags_[name] = arg.substr(eq + 1);
        bare_.erase(name);  // last one wins, including bare-ness
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

std::vector<std::string> ArgParser::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [name, value] : flags_) names.push_back(name);
  return names;
}

bool ArgParser::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

bool ArgParser::was_bare(const std::string& name) const {
  return bare_.count(name) > 0;
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::uint64_t ArgParser::get_uint(const std::string& name,
                                  std::uint64_t fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback
                            : std::strtoull(it->second.c_str(), nullptr, 10);
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::uint64_t> ArgParser::get_uint_list(
    const std::string& name, std::vector<std::uint64_t> fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  std::vector<std::uint64_t> out;
  const std::string& s = it->second;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto comma = s.find(',', pos);
    const auto token = s.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
    if (!token.empty()) {
      out.push_back(std::strtoull(token.c_str(), nullptr, 10));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  DC_CHECK(!out.empty(), "empty list flag --", name);
  return out;
}

}  // namespace detcol
