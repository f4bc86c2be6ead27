/**
 * @file
 * Tests for the structured report model and its sinks.
 *
 * The golden-file tests are the byte-identity lock for the bench
 * refactors: they rebuild the Table 2 and Figures 5 & 6, 7 & 8 and 9
 * reports through bench::paper_reports and assert the ASCII sink
 * reproduces the committed stdout exactly, at --jobs 1 and --jobs 4.
 * Figures 7 & 8 cover the indirect comparison replay (CHP path and
 * pattern, fixed and variable length path); Figure 9 the five
 * conditional budgets and the tuned length. The goldens were captured
 * at VLPSIM_SCALE=0.05, so main() pins that scale before the workload
 * generators run.
 */

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <gtest/gtest.h>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "paper_reports.h"
#include "sim/parallel.h"
#include "sim/report.h"
#include "util/json.h"
#include "util/logging.h"

namespace {

using namespace vlp;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string
renderAscii(const sim::Report &report)
{
    std::ostringstream out;
    sim::AsciiReportSink sink;
    sink.write(report, out);
    return out.str();
}

/** Build a report exactly the way bench::Driver does before the body
 *  runs, then fill it with @p build at @p jobs workers. */
template <typename Build>
std::string
renderBench(const char *title, const char *configuration,
            unsigned jobs, Build build)
{
    sim::Report report;
    report.title = title;
    report.configuration = configuration;
    report.banner = true;
    report.scale = util::workloadScale();
    sim::ParallelRunner runner(jobs);
    build(runner, report);
    return renderAscii(report);
}

TEST(GoldenAscii, Table2MatchesCommittedStdoutAtJobs1)
{
    const std::string golden =
        readFile(std::string(VLPSIM_GOLDEN_DIR) + "/bench_table2.txt");
    EXPECT_EQ(renderBench(bench::table2Title,
                          bench::table2Configuration, 1,
                          bench::buildTable2),
              golden);
}

TEST(GoldenAscii, Table2MatchesCommittedStdoutAtJobs4)
{
    const std::string golden =
        readFile(std::string(VLPSIM_GOLDEN_DIR) + "/bench_table2.txt");
    EXPECT_EQ(renderBench(bench::table2Title,
                          bench::table2Configuration, 4,
                          bench::buildTable2),
              golden);
}

TEST(GoldenAscii, Fig5_6MatchesCommittedStdoutAtJobs1)
{
    const std::string golden =
        readFile(std::string(VLPSIM_GOLDEN_DIR) + "/bench_fig5_6.txt");
    EXPECT_EQ(renderBench(bench::fig5_6Title,
                          bench::fig5_6Configuration, 1,
                          bench::buildFig5_6),
              golden);
}

TEST(GoldenAscii, Fig5_6MatchesCommittedStdoutAtJobs4)
{
    const std::string golden =
        readFile(std::string(VLPSIM_GOLDEN_DIR) + "/bench_fig5_6.txt");
    EXPECT_EQ(renderBench(bench::fig5_6Title,
                          bench::fig5_6Configuration, 4,
                          bench::buildFig5_6),
              golden);
}

TEST(GoldenAscii, Fig7_8MatchesCommittedStdoutAtJobs1)
{
    const std::string golden =
        readFile(std::string(VLPSIM_GOLDEN_DIR) + "/bench_fig7_8.txt");
    EXPECT_EQ(renderBench(bench::fig7_8Title,
                          bench::fig7_8Configuration, 1,
                          bench::buildFig7_8),
              golden);
}

TEST(GoldenAscii, Fig7_8MatchesCommittedStdoutAtJobs4)
{
    const std::string golden =
        readFile(std::string(VLPSIM_GOLDEN_DIR) + "/bench_fig7_8.txt");
    EXPECT_EQ(renderBench(bench::fig7_8Title,
                          bench::fig7_8Configuration, 4,
                          bench::buildFig7_8),
              golden);
}

TEST(GoldenAscii, Fig9MatchesCommittedStdoutAtJobs1)
{
    const std::string golden =
        readFile(std::string(VLPSIM_GOLDEN_DIR) + "/bench_fig9.txt");
    EXPECT_EQ(renderBench(bench::fig9Title, bench::fig9Configuration, 1,
                          bench::buildFig9),
              golden);
}

TEST(GoldenAscii, Fig9MatchesCommittedStdoutAtJobs4)
{
    const std::string golden =
        readFile(std::string(VLPSIM_GOLDEN_DIR) + "/bench_fig9.txt");
    EXPECT_EQ(renderBench(bench::fig9Title, bench::fig9Configuration, 4,
                          bench::buildFig9),
              golden);
}

/** A small report exercising every cell kind, metadata, captions,
 *  footers, text sections, and both layouts. */
sim::Report
sampleReport()
{
    sim::Report report;
    report.title = "sample";
    report.configuration = "unit test";
    report.setMeta("jobs", std::uint64_t{4});
    report.setMeta("note", "hello, \"world\"");
    report.addText("intro", "intro line\n");

    sim::Section &table = report.addSection("rates");
    table.caption = "\nRates\n";
    table.columns = {{"benchmark"}, {"branches"}, {"dynamic"},
                     {"ipc"}, {"miss (%)"}};
    table.addRow("gcc", {sim::Cell::text("gcc"),
                         sim::Cell::count(123456),
                         sim::Cell::scaled(17600000),
                         sim::Cell::real(1.25, 2),
                         sim::Cell::percent(8.125, 2)});
    table.addRow("go", {sim::Cell::text("go, \"alias\""),
                        sim::Cell::count(0),
                        sim::Cell::scaled(999),
                        sim::Cell::real(-0.5, 2),
                        sim::Cell::percent(100.0, 4)});
    table.footer = "footer line\n";

    sim::Section &entries = report.addSection("trace:cond");
    entries.layout = sim::Section::Layout::Entries;
    entries.caption = "  conditional (100 branches)\n";
    entries.columns = {{"mispredict (%)"}, {"mispredictions"},
                       {"branches"}};
    entries.addRow("gshare", {sim::Cell::percent(13.6754, 4),
                              sim::Cell::count(9436),
                              sim::Cell::count(69000)});
    return report;
}

TEST(JsonSink, RoundTripPreservesStructureAndValues)
{
    const sim::Report report = sampleReport();
    std::ostringstream out;
    sim::JsonReportSink sink;
    sink.write(report, out);

    const util::Json document = util::Json::parse(out.str());
    EXPECT_TRUE(sim::validateReportJson(document).empty());

    EXPECT_EQ(document.at("schema").asString(), "vlpsim-report");
    EXPECT_EQ(document.at("version").asUint(),
              sim::reportSchemaVersion);
    EXPECT_EQ(document.at("title").asString(), "sample");
    EXPECT_EQ(document.at("metadata").at("jobs").asString(), "4");
    EXPECT_EQ(document.at("metadata").at("note").asString(),
              "hello, \"world\"");

    const auto &sections = document.at("sections").items();
    ASSERT_EQ(sections.size(), 3u);
    EXPECT_EQ(sections[0].at("type").asString(), "text");
    EXPECT_EQ(sections[0].at("text").asString(), "intro line\n");

    const util::Json &table = sections[1];
    EXPECT_EQ(table.at("type").asString(), "table");
    ASSERT_EQ(table.at("columns").items().size(), 5u);
    EXPECT_EQ(table.at("columns").items()[4].asString(), "miss (%)");
    const util::Json &row = table.at("rows").items()[0];
    EXPECT_EQ(row.at("id").asString(), "gcc");
    const auto &cells = row.at("cells").items();
    EXPECT_EQ(cells[0].at("kind").asString(), "text");
    EXPECT_EQ(cells[0].at("value").asString(), "gcc");
    EXPECT_EQ(cells[1].at("kind").asString(), "count");
    EXPECT_EQ(cells[1].at("value").asUint(), 123456u);
    EXPECT_EQ(cells[2].at("kind").asString(), "scaled");
    EXPECT_EQ(cells[2].at("value").asUint(), 17600000u);
    EXPECT_EQ(cells[2].at("text").asString(), "17.6 M");
    EXPECT_EQ(cells[3].at("kind").asString(), "real");
    EXPECT_DOUBLE_EQ(cells[3].at("value").asNumber(), 1.25);
    EXPECT_EQ(cells[4].at("kind").asString(), "percent");
    EXPECT_DOUBLE_EQ(cells[4].at("value").asNumber(), 8.125);
    // snprintf %.2f rounds the exactly-representable 8.125 to even.
    EXPECT_EQ(cells[4].at("text").asString(), "8.12");
}

TEST(JsonSink, NonFiniteValuesSerializeAsNullWithText)
{
    sim::Report report;
    sim::Section &section = report.addSection("edge");
    section.columns = {{"value"}};
    section.addRow("inf", {sim::Cell::percent(
                              -std::numeric_limits<double>::infinity(),
                              1)});
    std::ostringstream out;
    sim::JsonReportSink sink;
    sink.write(report, out);

    const util::Json document = util::Json::parse(out.str());
    EXPECT_TRUE(sim::validateReportJson(document).empty());
    const util::Json &cell = document.at("sections")
                                 .items()[0]
                                 .at("rows")
                                 .items()[0]
                                 .at("cells")
                                 .items()[0];
    EXPECT_TRUE(cell.at("value").isNull());
    EXPECT_EQ(cell.at("text").asString(), "-inf");
}

TEST(CsvSink, EscapesCommasQuotesAndNewlines)
{
    sim::Report report;
    report.title = "csv test";
    sim::Section &section = report.addSection("cells");
    section.columns = {{"name"}, {"count"}};
    section.addRow("comma", {sim::Cell::text("a,b"),
                             sim::Cell::count(1)});
    section.addRow("quote", {sim::Cell::text("say \"hi\""),
                             sim::Cell::count(2)});
    section.addRow("newline", {sim::Cell::text("two\nlines"),
                               sim::Cell::count(3)});

    std::ostringstream out;
    sim::CsvReportSink sink;
    sink.write(report, out);
    const std::string text = out.str();

    EXPECT_NE(text.find("\"a,b\",1"), std::string::npos);
    EXPECT_NE(text.find("\"say \"\"hi\"\"\",2"), std::string::npos);
    EXPECT_NE(text.find("\"two\nlines\",3"), std::string::npos);
    // Plain values stay unquoted.
    EXPECT_NE(text.find("row,name,count"), std::string::npos);
}

TEST(CsvSink, NumericCellsEmitRawValues)
{
    sim::Report report = sampleReport();
    std::ostringstream out;
    sim::CsvReportSink sink;
    sink.write(report, out);
    const std::string text = out.str();
    // Scaled cells export the raw integer, not "17.6 M".
    EXPECT_NE(text.find("17600000"), std::string::npos);
    EXPECT_EQ(text.find("17.6 M"), std::string::npos);
}

TEST(AsciiSink, EntriesLayoutMatchesSuiteFormat)
{
    sim::Report report;
    sim::Section &entries = report.addSection("trace:cond");
    entries.layout = sim::Section::Layout::Entries;
    entries.caption = "  conditional (69000 branches)\n";
    entries.columns = {{"mispredict (%)"}, {"mispredictions"},
                       {"branches"}};
    entries.addRow("gshare", {sim::Cell::percent(13.6754, 4),
                              sim::Cell::count(9436),
                              sim::Cell::count(69000)});
    EXPECT_EQ(renderAscii(report),
              "  conditional (69000 branches)\n"
              "    gshare: 13.6754% (9436/69000)\n");
}

TEST(AsciiSink, PairedEntriesLayoutMatchesPairedSuiteFormat)
{
    sim::Report report;
    sim::Section &entries = report.addSection("pair:gcc:conditional");
    entries.layout = sim::Section::Layout::PairedEntries;
    entries.caption =
        "  conditional (69000 profiled branches; train vs test)\n";
    entries.columns = {{"train mispredict (%)"},
                       {"train mispredictions"},
                       {"train branches"},
                       {"test mispredict (%)"},
                       {"test mispredictions"},
                       {"test branches"}};
    entries.addRow("variable length path",
                   {sim::Cell::percent(4.2000, 4),
                    sim::Cell::count(2898), sim::Cell::count(69000),
                    sim::Cell::percent(6.5000, 4),
                    sim::Cell::count(4485), sim::Cell::count(69000)});
    entries.footer = "    generalization delta (variable length "
                     "path): +2.3000%\n";
    EXPECT_EQ(renderAscii(report),
              "  conditional (69000 profiled branches; train vs "
              "test)\n"
              "    variable length path: train 4.2000% (2898/69000) "
              "| test 6.5000% (4485/69000)\n"
              "    generalization delta (variable length path): "
              "+2.3000%\n");
}

TEST(ReportFormat, ParseAcceptsKnownNamesAndRejectsOthers)
{
    EXPECT_EQ(sim::parseReportFormat("ascii"),
              sim::ReportFormat::Ascii);
    EXPECT_EQ(sim::parseReportFormat("csv"), sim::ReportFormat::Csv);
    EXPECT_EQ(sim::parseReportFormat("json"), sim::ReportFormat::Json);
    EXPECT_THROW(sim::parseReportFormat("xml"), std::runtime_error);
}

TEST(ValidateReportJson, FlagsSchemaViolations)
{
    const util::Json bad = util::Json::parse(
        R"({"schema":"vlpsim-report","version":2,"title":"t",)"
        R"("configuration":"","metadata":{},"sections":[)"
        R"({"name":"s","type":"table","columns":["a"],)"
        R"("rows":[{"id":"r","cells":[]}]}]})");
    // Row with 0 cells against 1 column must be rejected.
    EXPECT_FALSE(sim::validateReportJson(bad).empty());

    const util::Json wrong_schema = util::Json::parse(
        R"({"schema":"other","version":2,"title":"t",)"
        R"("configuration":"","metadata":{},"sections":[]})");
    EXPECT_FALSE(sim::validateReportJson(wrong_schema).empty());
}

TEST(Reduction, SignedWithExplicitZeroBaseline)
{
    sim::RateEntry base;
    sim::RateEntry better;

    base.mispredictions = 200;
    better.mispredictions = 50;
    EXPECT_DOUBLE_EQ(bench::reduction(base, better), 75.0);

    // Regression reports its true signed magnitude.
    better.mispredictions = 300;
    EXPECT_DOUBLE_EQ(bench::reduction(base, better), -50.0);

    // Zero baseline: no change is 0, any misses are -inf.
    base.mispredictions = 0;
    better.mispredictions = 0;
    EXPECT_DOUBLE_EQ(bench::reduction(base, better), 0.0);
    better.mispredictions = 1;
    EXPECT_TRUE(std::isinf(bench::reduction(base, better)));
    EXPECT_LT(bench::reduction(base, better), 0.0);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // The committed goldens were captured at this scale; pin it before
    // any workload generation so the comparison is byte-exact.
    setenv("VLPSIM_SCALE", "0.05", 1);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
