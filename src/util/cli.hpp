// Tiny --key=value flag parser for bench and example binaries.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace detcol {

/// Parses flags of the form --name=value (or bare --name for booleans).
/// Unknown positional arguments are collected in positional().
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::uint64_t get_uint(const std::string& name,
                         std::uint64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated list of unsigned integers, e.g. --ns=1000,2000,4000.
  std::vector<std::uint64_t> get_uint_list(
      const std::string& name, std::vector<std::uint64_t> fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of all flags that were passed (for callers that reject unknowns).
  std::vector<std::string> flag_names() const;

  /// True if the flag was passed bare (--name, no "=value"). Bare flags read
  /// as the string "true"; callers with value-requiring flags can use this
  /// to reject e.g. a bare --out instead of writing to a file named "true".
  bool was_bare(const std::string& name) const;

 private:
  std::map<std::string, std::string> flags_;
  std::set<std::string> bare_;
  std::vector<std::string> positional_;
};

}  // namespace detcol
