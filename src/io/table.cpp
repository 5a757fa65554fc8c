#include "io/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace rtsm::io {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)), right_align_(header_.size(), false) {
  require(!header_.empty(), "table needs at least one column");
}

void TablePrinter::align_right(std::size_t column) {
  require(column < header_.size(), "align_right: column out of range");
  right_align_[column] = true;
}

void TablePrinter::add_row(std::vector<std::string> row) {
  require(row.size() == header_.size(), [&] {
    return "table row has " + std::to_string(row.size()) + " cells, expected " +
           std::to_string(header_.size());
  });
  rows_.push_back(std::move(row));
}

void TablePrinter::add_rule() {
  rows_.emplace_back();  // sentinel
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  auto print_cells = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) os << "  ";
      const std::size_t pad = width[c] - cells[c].size();
      if (right_align_[c]) os << std::string(pad, ' ') << cells[c];
      else os << cells[c] << std::string(pad, ' ');
    }
    os << '\n';
  };
  auto print_rule = [&] {
    for (std::size_t c = 0; c < width.size(); ++c) {
      if (c != 0) os << "--";
      os << std::string(width[c], '-');
    }
    os << '\n';
  };

  print_cells(header_);
  print_rule();
  for (const auto& row : rows_) {
    if (row.empty()) print_rule();
    else print_cells(row);
  }
}

std::string TablePrinter::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

}  // namespace rtsm::io
