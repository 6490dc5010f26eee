// Small text-formatting helpers used by the report writers.
//
// The post-processing tools print oprofile-style fixed-width tables; these
// helpers keep that formatting in one place and out of the report logic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>


namespace viprof::support {

/// Fixed-point decimal: value with `decimals` digits after the point,
/// e.g. fixed(3.14159, 4) == "3.1416".
std::string fixed(double value, int decimals);

/// Left-pad `s` with spaces to at least `width` characters.
std::string pad_left(const std::string& s, std::size_t width);

/// Right-pad `s` with spaces to at least `width` characters.
std::string pad_right(const std::string& s, std::size_t width);

/// Hexadecimal address with 0x prefix, lower case, no leading zeros.
std::string hex(std::uint64_t value);

/// Join strings with a separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Simple column-aligned table writer: set headers, append rows, render.
/// Numeric-looking cells are right-aligned; text cells left-aligned.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  std::string render() const;
  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace viprof::support
