// ASCII table printer used by the bench harness to emit paper-shaped tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace detcol {

/// Accumulates rows of string cells and renders an aligned ASCII table.
/// Numeric convenience overloads format with sensible defaults.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Begin a new row; subsequent cell() calls append to it.
  Table& row();

  Table& cell(const std::string& v);
  Table& cell(const char* v);
  Table& cell(std::uint64_t v);
  Table& cell(std::int64_t v);
  Table& cell(int v);
  Table& cell(unsigned v);
  Table& cell(double v, int precision = 3);

  /// Render to a string (ASCII box style).
  std::string str() const;

  /// Print ASCII rendering to stdout with a caption line.
  void print(const std::string& caption) const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helper shared with benches.
std::string format_double(double v, int precision);

}  // namespace detcol
