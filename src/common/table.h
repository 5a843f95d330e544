// Fixed-width text table rendering for bench/report output.
//
// Every bench binary prints its figure/table as aligned rows; this keeps that output
// consistent and makes diffs between runs readable.
#ifndef COLDSTART_COMMON_TABLE_H_
#define COLDSTART_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace coldstart {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  // Starts a new row; subsequent Cell() calls fill it left to right.
  TextTable& Row();
  TextTable& Cell(const std::string& value);
  TextTable& Cell(double value, int precision = 3);
  TextTable& Cell(int64_t value);
  TextTable& Cell(uint64_t value);
  TextTable& Cell(int value) { return Cell(static_cast<int64_t>(value)); }

  // Renders the table with a header underline and two-space column gaps.
  std::string Render() const;
  // Renders as CSV (no alignment padding).
  std::string RenderCsv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double compactly ("1.23e+05" only when necessary).
std::string FormatDouble(double v, int precision = 3);

}  // namespace coldstart

#endif  // COLDSTART_COMMON_TABLE_H_
