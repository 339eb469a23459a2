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
  // Adds a horizontal separator before the next row.
  void AddSeparator();

  void Print(std::ostream& os) const;
  std::string ToString() const;
  std::string ToCsv() const;

  size_t row_count() const { return rows_.size(); }

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator_before = false;
  };

  std::vector<std::string> header_;
  std::vector<Row> rows_;
  bool pending_separator_ = false;
};

}  // namespace govdns::util
