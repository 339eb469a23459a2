// Plain-text table rendering for the study report, benchmark harnesses and
// examples: TextTable renders the rows with aligned columns, and ToCsv
// provides a machine-readable twin.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace govdns::util {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);

  void Print(std::ostream& os) const;
  std::string ToString() const;
  std::string ToCsv() const;

  size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace govdns::util
