#include "util/table.h"

#include <algorithm>
#include <sstream>

#include "util/status.h"

namespace govdns::util {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  GOVDNS_CHECK(!header_.empty());
}

void TextTable::AddRow(std::vector<std::string> cells) {
  GOVDNS_CHECK(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::Print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size());
  for (size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const std::vector<std::string>& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_sep = [&] {
    for (size_t w : widths) os << '+' << std::string(w + 2, '-');
    os << "+\n";
  };
  auto print_cells = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      os << "| " << cells[i] << std::string(widths[i] - cells[i].size() + 1, ' ');
    }
    os << "|\n";
  };
  print_sep();
  print_cells(header_);
  print_sep();
  for (const std::vector<std::string>& row : rows_) print_cells(row);
  print_sep();
}

std::string TextTable::ToString() const {
  std::ostringstream os;
  Print(os);
  return os.str();
}

namespace {
std::string CsvEscape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string TextTable::ToCsv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) os << ',';
      os << CsvEscape(cells[i]);
    }
    os << '\n';
  };
  emit(header_);
  for (const std::vector<std::string>& row : rows_) emit(row);
  return os.str();
}

}  // namespace govdns::util
