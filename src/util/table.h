/**
 * @file
 * ASCII table and CSV rendering for experiment output.
 *
 * Every bench binary prints the rows/series of the paper table or figure
 * it reproduces; this helper keeps that output aligned. CSV output goes
 * through sim::Report, which escapes fields with csvEscape().
 */

#ifndef VLPSIM_UTIL_TABLE_H
#define VLPSIM_UTIL_TABLE_H

#include <iosfwd>
#include <string>
#include <vector>

namespace vlp {
namespace util {

/**
 * A simple column-aligned text table.
 *
 * Usage:
 * @code
 *   TablePrinter table({"Benchmark", "gshare", "VLP"});
 *   table.addRow({"gcc", "8.8", "4.3"});
 *   table.print(std::cout);
 * @endcode
 */
class TablePrinter
{
  public:
    /** @param headers column headers, defining the column count */
    explicit TablePrinter(std::vector<std::string> headers);

    /** Append a row; must have exactly as many cells as there are
     * columns. */
    void addRow(std::vector<std::string> cells);

    /** Render the table with a header separator to @p out. */
    void print(std::ostream &out) const;

    /** Number of data rows added so far. */
    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Quote a CSV field if it contains separators or quotes. */
std::string csvEscape(const std::string &field);

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_TABLE_H
