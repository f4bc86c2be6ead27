/**
 * @file
 * Structured report model for every experiment artifact the repo
 * prints: the paper's tables and figures (bench binaries), the
 * synthetic suite comparison, the external-trace suite, and the
 * profiling summary.
 *
 * A Report is banner/title metadata plus an ordered list of Sections;
 * a Section is an optional verbatim caption, an optional table
 * (named columns × typed-cell rows, each row carrying its
 * benchmark/trace identity), and an optional verbatim footer. Cells
 * are typed (counts, scaled counts, reals, percentages, text) and
 * remember their legacy formatting, so the ASCII sink reproduces the
 * pre-report stdout byte for byte while the CSV and JSON sinks emit
 * raw machine-readable values.
 *
 * Three sinks render a Report:
 *  - AsciiReportSink — byte-identical to the historical
 *    util::TablePrinter output (it renders through TablePrinter);
 *  - CsvReportSink — one CSV block per table section, reusing
 *    util::csvEscape;
 *  - JsonReportSink — the versioned schema documented in
 *    docs/FORMATS.md ("vlpsim-report", reportSchemaVersion).
 *
 * reportSchemaVersion is also stamped into comparison-row cache keys
 * (sim/experiment.cc, sim/suite_runner.cc), so a schema change can
 * never serve a report built from a stale cached layout.
 */

#ifndef VLPSIM_SIM_REPORT_H
#define VLPSIM_SIM_REPORT_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace vlp {
namespace util {
class Json;
class JsonWriter;
} // namespace util

namespace sim {

/**
 * Version of the machine-readable report layout (JSON schema, CSV
 * block shape, and the Section/Cell model they serialize). Bump on
 * any change to the emitted structure; the bump invalidates cached
 * comparison rows via the key stamp.
 */
inline constexpr std::uint32_t reportSchemaVersion = 2;

/** One typed table cell. Construct through the factories so the
 *  ASCII rendering matches the legacy formatting exactly. */
class Cell
{
  public:
    enum class Kind {
        /** Free text (benchmark names, labels). */
        Text,
        /** Plain integer, rendered as unseparated digits. */
        Count,
        /** Integer rendered like the paper's Table 1 ("17.6 M"). */
        Scaled,
        /** Real number at a fixed number of decimals. */
        Real,
        /** Percentage at a fixed number of decimals (rendered without
         *  the '%' sign, like the legacy tables). */
        Percent,
    };

    Cell() = default;

    static Cell text(std::string value);
    static Cell count(std::uint64_t value);
    static Cell scaled(std::uint64_t value);
    static Cell real(double value, int decimals);
    static Cell percent(double value, int decimals = 2);

    Kind kind() const { return kind_; }

    /** Numeric value (0 for Text cells). */
    double number() const { return number_; }

    /** Integer value (Count/Scaled cells only; else 0). */
    std::uint64_t integer() const { return integer_; }

    /** Decimal places used by Real/Percent rendering. */
    int decimals() const { return decimals_; }

    /** The exact legacy text rendering of this cell. */
    std::string ascii() const;

    /** Schema name of the kind ("text", "count", ...). */
    const char *kindName() const;

  private:
    Kind kind_ = Kind::Text;
    std::string text_;
    std::uint64_t integer_ = 0;
    double number_ = 0.0;
    int decimals_ = 2;
};

/** A named report column. */
struct Column
{
    std::string name;
};

/** One table row: its cells plus the benchmark/trace it describes. */
struct Row
{
    /** Benchmark or trace identity; empty for anonymous rows. */
    std::string id;
    std::vector<Cell> cells;
};

/**
 * One report section: verbatim caption text, then an optional table,
 * then verbatim footer text. A section without columns is a pure
 * text block (caption + footer only).
 */
struct Section
{
    enum class Layout {
        /** Column-aligned table (util::TablePrinter). */
        Aligned,
        /**
         * Per-predictor entry lines, the external-suite style:
         * "    <id>: <cell0>% (<cell1>/<cell2>)" per row. Rows must
         * be {Percent, Count, Count}.
         */
        Entries,
        /**
         * Train-vs-test entry lines, the paired external-suite style:
         * "    <id>: train <c0>% (<c1>/<c2>) | test <c3>% (<c4>/<c5>)"
         * per row. Rows must be {Percent, Count, Count, Percent,
         * Count, Count} — the train triple, then the test triple.
         */
        PairedEntries,
    };

    /** Machine name ("conditional", "figure5", trace path...). */
    std::string name;
    std::string caption;
    std::vector<Column> columns;
    std::vector<Row> rows;
    std::string footer;
    Layout layout = Layout::Aligned;

    /** Append a row (cell count must match the column count when
     *  columns are declared). */
    Row &addRow(std::string id, std::vector<Cell> cells);

    bool isTable() const { return !columns.empty(); }
};

/** A complete experiment report. */
struct Report
{
    /** Banner headline ("Table 2: ..."); also the JSON title. */
    std::string title;
    /** Banner configuration line. */
    std::string configuration;
    /**
     * Render the bench banner block in ASCII (title, configuration,
     * the synthetic-workload caveat, and the VLPSIM_SCALE note when
     * scale != 1).
     */
    bool banner = false;
    /** Workload scale factor shown in the banner note. */
    double scale = 1.0;
    /** Ordered (key, value) metadata: jobs, scale, options digest,
     *  cache counters, quarantine causes... */
    std::vector<std::pair<std::string, std::string>> metadata;
    std::vector<Section> sections;

    /** Append a section and return it for filling. */
    Section &addSection(std::string name);

    /** Append a pure text section (rendered verbatim in ASCII). */
    void addText(std::string name, std::string text);

    /** Set (or overwrite) one metadata entry. */
    void setMeta(const std::string &key, std::string value);
    void setMeta(const std::string &key, std::uint64_t value);
};

/** Output format of a report sink. */
enum class ReportFormat { Ascii, Csv, Json };

/**
 * Parse "ascii" / "csv" / "json".
 * @throws std::runtime_error on anything else
 */
ReportFormat parseReportFormat(const std::string &text);

/** Renders a Report to a stream in one concrete format. */
class ReportSink
{
  public:
    virtual ~ReportSink() = default;

    /** Render @p report to @p out. */
    virtual void write(const Report &report, std::ostream &out) = 0;
};

/** Byte-identical reproduction of the legacy stdout. */
class AsciiReportSink : public ReportSink
{
  public:
    void write(const Report &report, std::ostream &out) override;
};

/** One CSV block per table section (see docs/FORMATS.md). */
class CsvReportSink : public ReportSink
{
  public:
    void write(const Report &report, std::ostream &out) override;
};

/** The versioned JSON schema (see docs/FORMATS.md). */
class JsonReportSink : public ReportSink
{
  public:
    /** The pretty document plus a trailing newline. */
    void write(const Report &report, std::ostream &out) override;

    /**
     * Emit the document as one value into @p writer, in the writer's
     * style (the serve result frame embeds it compact this way).
     */
    void write(const Report &report, util::JsonWriter &writer);
};

/** Sink factory for a parsed format. */
std::unique_ptr<ReportSink> makeReportSink(ReportFormat format);

/**
 * Check a parsed JSON document against the report schema.
 * @return human-readable problems; empty when the document validates
 */
std::vector<std::string> validateReportJson(const util::Json &document);

} // namespace sim
} // namespace vlp

#endif // VLPSIM_SIM_REPORT_H
