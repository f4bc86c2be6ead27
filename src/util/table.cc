/**
 * @file
 * Table rendering implementation.
 */

#include "util/table.h"

#include <algorithm>
#include <cassert>
#include <ostream>

namespace vlp {
namespace util {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    assert(!headers_.empty());
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    assert(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

void
TablePrinter::print(std::ostream &out) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            out << cells[c];
            if (c + 1 < cells.size())
                out << std::string(widths[c] - cells[c].size() + 2, ' ');
        }
        out << '\n';
    };

    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    out << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        print_row(row);
}

std::string
csvEscape(const std::string &field)
{
    if (field.find_first_of(",\"\n") == std::string::npos)
        return field;
    std::string escaped = "\"";
    for (char ch : field) {
        if (ch == '"')
            escaped += "\"\"";
        else
            escaped.push_back(ch);
    }
    escaped.push_back('"');
    return escaped;
}

} // namespace util
} // namespace vlp
