#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "util/check.hpp"

namespace detcol {

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  DC_CHECK(!headers_.empty(), "table needs at least one column");
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& v) {
  DC_CHECK(!rows_.empty(), "cell() before row()");
  DC_CHECK(rows_.back().size() < headers_.size(), "row has too many cells");
  rows_.back().push_back(v);
  return *this;
}

Table& Table::cell(const char* v) { return cell(std::string(v)); }
Table& Table::cell(std::uint64_t v) { return cell(std::to_string(v)); }
Table& Table::cell(std::int64_t v) { return cell(std::to_string(v)); }
Table& Table::cell(int v) { return cell(std::to_string(v)); }
Table& Table::cell(unsigned v) { return cell(std::to_string(v)); }
Table& Table::cell(double v, int precision) {
  return cell(format_double(v, precision));
}

namespace {
std::vector<std::size_t> column_widths(
    const std::vector<std::string>& headers,
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> w(headers.size());
  for (std::size_t i = 0; i < headers.size(); ++i) w[i] = headers[i].size();
  for (const auto& r : rows) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      w[i] = std::max(w[i], r[i].size());
    }
  }
  return w;
}

void append_padded(std::ostringstream& os, const std::string& s,
                   std::size_t width) {
  os << s;
  for (std::size_t i = s.size(); i < width; ++i) os << ' ';
}
}  // namespace

std::string Table::str() const {
  const auto w = column_widths(headers_, rows_);
  std::ostringstream os;
  auto rule = [&] {
    os << '+';
    for (auto width : w) {
      for (std::size_t i = 0; i < width + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };
  rule();
  os << '|';
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    os << ' ';
    append_padded(os, headers_[i], w[i]);
    os << " |";
  }
  os << '\n';
  rule();
  for (const auto& r : rows_) {
    os << '|';
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      os << ' ';
      append_padded(os, i < r.size() ? r[i] : std::string(), w[i]);
      os << " |";
    }
    os << '\n';
  }
  rule();
  return os.str();
}

void Table::print(const std::string& caption) const {
  std::cout << "\n== " << caption << " ==\n" << str() << std::flush;
}

}  // namespace detcol
