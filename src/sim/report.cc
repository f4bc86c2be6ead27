/**
 * @file
 * Report model and sink implementations.
 */

#include "sim/report.h"

#include <cassert>
#include <ostream>
#include <set>

#include "util/json.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/table.h"

namespace vlp {
namespace sim {

// --- Cell -----------------------------------------------------------

Cell
Cell::text(std::string value)
{
    Cell cell;
    cell.kind_ = Kind::Text;
    cell.text_ = std::move(value);
    return cell;
}

Cell
Cell::count(std::uint64_t value)
{
    Cell cell;
    cell.kind_ = Kind::Count;
    cell.integer_ = value;
    cell.number_ = static_cast<double>(value);
    return cell;
}

Cell
Cell::scaled(std::uint64_t value)
{
    Cell cell;
    cell.kind_ = Kind::Scaled;
    cell.integer_ = value;
    cell.number_ = static_cast<double>(value);
    return cell;
}

Cell
Cell::real(double value, int decimals)
{
    Cell cell;
    cell.kind_ = Kind::Real;
    cell.number_ = value;
    cell.decimals_ = decimals;
    return cell;
}

Cell
Cell::percent(double value, int decimals)
{
    Cell cell;
    cell.kind_ = Kind::Percent;
    cell.number_ = value;
    cell.decimals_ = decimals;
    return cell;
}

std::string
Cell::ascii() const
{
    switch (kind_) {
    case Kind::Text: return text_;
    case Kind::Count: return std::to_string(integer_);
    case Kind::Scaled: return util::formatScaled(integer_);
    case Kind::Real:
    case Kind::Percent: return util::formatDouble(number_, decimals_);
    }
    return text_;
}

const char *
Cell::kindName() const
{
    switch (kind_) {
    case Kind::Text: return "text";
    case Kind::Count: return "count";
    case Kind::Scaled: return "scaled";
    case Kind::Real: return "real";
    case Kind::Percent: return "percent";
    }
    return "text";
}

// --- Section / Report ----------------------------------------------

Row &
Section::addRow(std::string id, std::vector<Cell> cells)
{
    assert(columns.empty() || cells.size() == columns.size());
    rows.push_back(Row{std::move(id), std::move(cells)});
    return rows.back();
}

Section &
Report::addSection(std::string name)
{
    sections.emplace_back();
    sections.back().name = std::move(name);
    return sections.back();
}

void
Report::addText(std::string name, std::string text)
{
    Section &section = addSection(std::move(name));
    section.caption = std::move(text);
}

void
Report::setMeta(const std::string &key, std::string value)
{
    for (auto &[name, existing] : metadata) {
        if (name == key) {
            existing = std::move(value);
            return;
        }
    }
    metadata.emplace_back(key, std::move(value));
}

void
Report::setMeta(const std::string &key, std::uint64_t value)
{
    setMeta(key, std::to_string(value));
}

const std::string *
Report::meta(const std::string &key) const
{
    for (const auto &[name, value] : metadata) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

ReportFormat
parseReportFormat(const std::string &text)
{
    if (text == "ascii")
        return ReportFormat::Ascii;
    if (text == "csv")
        return ReportFormat::Csv;
    if (text == "json")
        return ReportFormat::Json;
    util::fatal("unknown report format: " + text
                + " (expected ascii, csv, or json)");
}

std::unique_ptr<ReportSink>
makeReportSink(ReportFormat format)
{
    switch (format) {
    case ReportFormat::Ascii:
        return std::make_unique<AsciiReportSink>();
    case ReportFormat::Csv: return std::make_unique<CsvReportSink>();
    case ReportFormat::Json:
        return std::make_unique<JsonReportSink>();
    }
    return std::make_unique<AsciiReportSink>();
}

// --- ASCII sink -----------------------------------------------------

void
AsciiReportSink::write(const Report &report, std::ostream &out)
{
    if (report.banner) {
        // Byte-identical to the historical bench::banner() block.
        const std::string rule(60, '=');
        out << rule << "\n"
            << report.title << "\n"
            << report.configuration << "\n"
            << "(synthetic workloads; compare shapes, not absolute "
               "values — see EXPERIMENTS.md)\n"
            << rule << "\n";
        if (report.scale != 1.0)
            out << "note: VLPSIM_SCALE=" << report.scale << "\n";
    }
    for (const Section &section : report.sections) {
        out << section.caption;
        if (section.isTable()) {
            if (section.layout == Section::Layout::Entries) {
                // The external-suite per-predictor entry lines.
                for (const Row &row : section.rows) {
                    assert(row.cells.size() == 3);
                    out << "    " << row.id << ": "
                        << row.cells[0].ascii() << "% ("
                        << row.cells[1].ascii() << "/"
                        << row.cells[2].ascii() << ")\n";
                }
            } else if (section.layout
                       == Section::Layout::PairedEntries) {
                // Train-vs-test entry lines of the paired suite.
                for (const Row &row : section.rows) {
                    assert(row.cells.size() == 6);
                    out << "    " << row.id << ": train "
                        << row.cells[0].ascii() << "% ("
                        << row.cells[1].ascii() << "/"
                        << row.cells[2].ascii() << ") | test "
                        << row.cells[3].ascii() << "% ("
                        << row.cells[4].ascii() << "/"
                        << row.cells[5].ascii() << ")\n";
                }
            } else {
                std::vector<std::string> headers;
                headers.reserve(section.columns.size());
                for (const Column &column : section.columns)
                    headers.push_back(column.name);
                util::TablePrinter table(std::move(headers));
                for (const Row &row : section.rows) {
                    std::vector<std::string> cells;
                    cells.reserve(row.cells.size());
                    for (const Cell &cell : row.cells)
                        cells.push_back(cell.ascii());
                    table.addRow(std::move(cells));
                }
                table.print(out);
            }
        }
        out << section.footer;
    }
}

// --- CSV sink -------------------------------------------------------

void
CsvReportSink::write(const Report &report, std::ostream &out)
{
    out << "# vlpsim-report v" << reportSchemaVersion << "\n";
    if (!report.title.empty())
        out << "# title: " << report.title << "\n";
    if (!report.configuration.empty())
        out << "# configuration: " << report.configuration << "\n";
    for (const auto &[key, value] : report.metadata)
        out << "# meta " << key << ": " << value << "\n";
    for (const Section &section : report.sections) {
        if (!section.isTable())
            continue; // free text carries no cells
        out << "\n# section: " << section.name << "\n";
        out << "row";
        for (const Column &column : section.columns)
            out << "," << util::csvEscape(column.name);
        out << "\n";
        for (const Row &row : section.rows) {
            out << util::csvEscape(row.id);
            for (const Cell &cell : row.cells) {
                out << ",";
                switch (cell.kind()) {
                case Cell::Kind::Text:
                    out << util::csvEscape(cell.ascii());
                    break;
                case Cell::Kind::Count:
                case Cell::Kind::Scaled:
                    // Raw digits, not the "17.6 M" display form.
                    out << cell.integer();
                    break;
                case Cell::Kind::Real:
                case Cell::Kind::Percent:
                    out << cell.ascii();
                    break;
                }
            }
            out << "\n";
        }
    }
}

// --- JSON sink ------------------------------------------------------

void
JsonReportSink::write(const Report &report, std::ostream &out)
{
    util::JsonWriter writer;
    write(report, writer);
    out << writer.str() << "\n";
}

void
JsonReportSink::write(const Report &report, util::JsonWriter &writer)
{
    writer.beginObject();
    writer.member("schema", "vlpsim-report");
    writer.member("version", std::uint64_t{reportSchemaVersion});
    writer.member("title", report.title);
    writer.member("configuration", report.configuration);
    writer.key("metadata");
    writer.beginObject();
    for (const auto &[key, value] : report.metadata)
        writer.member(key, value);
    writer.endObject();
    writer.key("sections");
    writer.beginArray();
    for (const Section &section : report.sections) {
        writer.beginObject();
        writer.member("name", section.name);
        if (!section.isTable()) {
            writer.member("type", "text");
            writer.member("text", section.caption + section.footer);
            writer.endObject();
            continue;
        }
        writer.member("type", "table");
        if (!section.caption.empty())
            writer.member("caption", section.caption);
        if (!section.footer.empty())
            writer.member("footer", section.footer);
        writer.key("columns");
        writer.beginArray();
        for (const Column &column : section.columns)
            writer.value(column.name);
        writer.endArray();
        writer.key("rows");
        writer.beginArray();
        for (const Row &row : section.rows) {
            writer.beginObject();
            writer.member("id", row.id);
            writer.key("cells");
            writer.beginArray();
            for (const Cell &cell : row.cells) {
                writer.beginObject();
                writer.member("kind", cell.kindName());
                writer.key("value");
                switch (cell.kind()) {
                case Cell::Kind::Text:
                    writer.value(cell.ascii());
                    break;
                case Cell::Kind::Count:
                case Cell::Kind::Scaled:
                    writer.value(cell.integer());
                    break;
                case Cell::Kind::Real:
                case Cell::Kind::Percent:
                    writer.value(cell.number());
                    break;
                }
                writer.member("text", cell.ascii());
                writer.endObject();
            }
            writer.endArray();
            writer.endObject();
        }
        writer.endArray();
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
}

// --- Schema validation ----------------------------------------------

namespace {

void
require(std::vector<std::string> &errors, bool condition,
        const std::string &what)
{
    if (!condition)
        errors.push_back(what);
}

void
validateCell(std::vector<std::string> &errors, const util::Json &cell,
             const std::string &where)
{
    if (!cell.isObject()) {
        errors.push_back(where + ": cell is not an object");
        return;
    }
    static const std::set<std::string> kinds = {
        "text", "count", "scaled", "real", "percent"};
    const util::Json *kind = cell.find("kind");
    if (kind == nullptr || !kind->isString()
        || kinds.count(kind->asString()) == 0) {
        errors.push_back(where + ": missing or unknown cell kind");
        return;
    }
    const util::Json *text = cell.find("text");
    require(errors, text != nullptr && text->isString(),
            where + ": cell has no text rendering");
    const util::Json *value = cell.find("value");
    if (value == nullptr) {
        errors.push_back(where + ": cell has no value");
        return;
    }
    const std::string &name = kind->asString();
    if (name == "text") {
        require(errors, value->isString(),
                where + ": text cell value is not a string");
    } else if (name == "count" || name == "scaled") {
        require(errors, value->isNumber(),
                where + ": integer cell value is not a number");
    } else {
        // real/percent: null encodes a non-finite value.
        require(errors, value->isNumber() || value->isNull(),
                where + ": numeric cell value is neither number nor "
                        "null");
    }
}

void
validateSection(std::vector<std::string> &errors,
                const util::Json &section, std::size_t index)
{
    const std::string where = "sections[" + std::to_string(index) + "]";
    if (!section.isObject()) {
        errors.push_back(where + ": not an object");
        return;
    }
    const util::Json *name = section.find("name");
    require(errors, name != nullptr && name->isString(),
            where + ": missing name");
    const util::Json *type = section.find("type");
    if (type == nullptr || !type->isString()) {
        errors.push_back(where + ": missing type");
        return;
    }
    if (type->asString() == "text") {
        const util::Json *text = section.find("text");
        require(errors, text != nullptr && text->isString(),
                where + ": text section without text");
        return;
    }
    if (type->asString() != "table") {
        errors.push_back(where + ": unknown section type \""
                         + type->asString() + "\"");
        return;
    }
    const util::Json *columns = section.find("columns");
    if (columns == nullptr || !columns->isArray()) {
        errors.push_back(where + ": table section without columns");
        return;
    }
    for (const util::Json &column : columns->items())
        require(errors, column.isString(),
                where + ": column name is not a string");
    const util::Json *rows = section.find("rows");
    if (rows == nullptr || !rows->isArray()) {
        errors.push_back(where + ": table section without rows");
        return;
    }
    for (std::size_t r = 0; r < rows->items().size(); ++r) {
        const util::Json &row = rows->items()[r];
        const std::string row_where =
            where + ".rows[" + std::to_string(r) + "]";
        if (!row.isObject()) {
            errors.push_back(row_where + ": not an object");
            continue;
        }
        const util::Json *id = row.find("id");
        require(errors, id != nullptr && id->isString(),
                row_where + ": missing id");
        const util::Json *cells = row.find("cells");
        if (cells == nullptr || !cells->isArray()) {
            errors.push_back(row_where + ": missing cells");
            continue;
        }
        require(errors,
                cells->items().size() == columns->items().size(),
                row_where + ": cell count "
                    + std::to_string(cells->items().size())
                    + " does not match column count "
                    + std::to_string(columns->items().size()));
        for (std::size_t c = 0; c < cells->items().size(); ++c) {
            validateCell(errors, cells->items()[c],
                         row_where + ".cells[" + std::to_string(c)
                             + "]");
        }
    }
}

} // anonymous namespace

std::vector<std::string>
validateReportJson(const util::Json &document)
{
    std::vector<std::string> errors;
    if (!document.isObject()) {
        errors.push_back("document is not a JSON object");
        return errors;
    }
    const util::Json *schema = document.find("schema");
    require(errors,
            schema != nullptr && schema->isString()
                && schema->asString() == "vlpsim-report",
            "schema marker is not \"vlpsim-report\"");
    const util::Json *version = document.find("version");
    require(errors,
            version != nullptr && version->isNumber()
                && version->asUint() == reportSchemaVersion,
            "version is not " + std::to_string(reportSchemaVersion));
    const util::Json *title = document.find("title");
    require(errors, title != nullptr && title->isString(),
            "missing title");
    const util::Json *metadata = document.find("metadata");
    if (metadata == nullptr || !metadata->isObject()) {
        errors.push_back("missing metadata object");
    } else {
        for (const auto &[key, value] : metadata->members())
            require(errors, value.isString(),
                    "metadata \"" + key + "\" is not a string");
    }
    const util::Json *sections = document.find("sections");
    if (sections == nullptr || !sections->isArray()) {
        errors.push_back("missing sections array");
    } else {
        for (std::size_t i = 0; i < sections->items().size(); ++i)
            validateSection(errors, sections->items()[i], i);
    }
    return errors;
}

} // namespace sim
} // namespace vlp
