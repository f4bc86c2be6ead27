/**
 * @file
 * Table 2, Figures 5 & 6 and Figures 7 & 8 report builders.
 */

#include "paper_reports.h"

#include "bench_common.h"
#include "predictors/budget.h"
#include "sim/experiment.h"
#include "workload/benchmarks.h"

namespace bench {

using namespace vlp;

void
buildTable2(sim::ParallelRunner &runner, sim::Report &report)
{
    {
        sim::Section &section = report.addSection("conditional");
        section.caption = "\nConditional Branches\n";
        section.columns = {{"Table Size (KB)"},
                           {"Path Length"},
                           {"avg mispredict (%)"},
                           {"paper length"}};
        const std::size_t sizes[] = {1024, 4096, 16384, 65536,
                                     262144};
        const unsigned paper_lengths[] = {6, 9, 14, 16, 23};
        for (unsigned i = 0; i < 5; ++i) {
            const auto average =
                runner.averageSweep(sizes[i], false);
            const unsigned best =
                runner.globalLength(sizes[i], false);
            section.addRow(std::to_string(sizes[i]),
                           {
                               sim::Cell::real(sizes[i] / 1024.0, 0),
                               sim::Cell::count(best),
                               sim::Cell::percent(average[best - 1]),
                               sim::Cell::count(paper_lengths[i]),
                           });
        }
    }
    {
        sim::Section &section = report.addSection("indirect");
        section.caption = "\nIndirect Branches\n";
        section.columns = {{"Table Size (KB)"},
                           {"Path Length"},
                           {"avg mispredict (%)"},
                           {"paper length"}};
        const std::size_t sizes[] = {512, 2048, 8192, 32768};
        const unsigned paper_lengths[] = {11, 21, 21, 21};
        for (unsigned i = 0; i < 4; ++i) {
            const auto average =
                runner.averageSweep(sizes[i], true);
            const unsigned best =
                runner.globalLength(sizes[i], true);
            section.addRow(std::to_string(sizes[i]),
                           {
                               sim::Cell::real(sizes[i] / 1024.0, 1),
                               sim::Cell::count(best),
                               sim::Cell::percent(average[best - 1]),
                               sim::Cell::count(paper_lengths[i]),
                           });
        }
    }
}

void
buildFig5_6(sim::ParallelRunner &runner, sim::Report &report)
{
    constexpr std::size_t bytes = 16384;
    const unsigned global_length =
        runner.globalLength(bytes, false);
    report.addText("global-length",
                   "global fixed path length: "
                       + std::to_string(global_length) + "\n");
    report.setMeta("globalConditionalLength",
                   std::uint64_t{global_length});

    // All 16 comparisons run sharded across the workers; the rows
    // come back in suite order regardless of scheduling.
    const auto &suite = workload::benchmarkSuite();
    const auto rows =
        runner.compareSuite(suite, bytes, global_length, false);

    double total_reduction = 0.0;
    double worst_reduction = 1e9, best_reduction = -1e9;
    std::string worst_name, best_name;
    unsigned count = 0;

    for (const bool spec_group : {true, false}) {
        sim::Section &section = report.addSection(
            spec_group ? "figure5" : "figure6");
        section.caption = spec_group ? "\nFigure 5 (SPECint95)\n"
                                     : "\nFigure 6 (non-SPEC)\n";
        section.columns = {{"Benchmark"},
                           {"gshare (%)"},
                           {"fixed length path (%)"},
                           {"variable length path (%)"},
                           {"reduction vs gshare (%)"}};
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const auto &spec = suite[i];
            if (spec.isSpec != spec_group)
                continue;
            const auto &row = rows[i];
            const auto &gshare = row.entry(sim::names::gshare);
            const auto &flp = row.entry(sim::names::flp);
            const auto &vlp = row.entry(sim::names::vlp);
            const double cut = reduction(gshare, vlp);
            section.addRow(spec.name,
                           {
                               sim::Cell::text(spec.name),
                               sim::Cell::percent(gshare.rate),
                               sim::Cell::percent(flp.rate),
                               sim::Cell::percent(vlp.rate),
                               sim::Cell::percent(cut),
                           });
            total_reduction += cut;
            ++count;
            if (cut < worst_reduction) {
                worst_reduction = cut;
                worst_name = spec.name;
            }
            if (cut > best_reduction) {
                best_reduction = cut;
                best_name = spec.name;
            }
        }
    }

    report.addText(
        "summary",
        "\naverage reduction in mispredictions vs gshare: "
            + rate(total_reduction / count) + "%  (paper: 28.6%)\n"
            + "largest reduction: " + rate(best_reduction) + "% for "
            + best_name + "  (paper: 68.6% for perl)\n"
            + "smallest reduction: " + rate(worst_reduction)
            + "% for " + worst_name + "  (paper: 7.4% for pgp)\n");
}

void
buildFig7_8(sim::ParallelRunner &runner, sim::Report &report)
{
    constexpr std::size_t bytes = 2048;
    const unsigned global_length = runner.globalLength(bytes, true);
    report.addText("global-length",
                   "global fixed path length: "
                       + std::to_string(global_length) + "\n");
    report.setMeta("globalIndirectLength",
                   std::uint64_t{global_length});

    const auto &suite = workload::benchmarkSuite();
    const auto rows = runner.compareSuite(suite, bytes, global_length, true);

    for (const bool spec_group : {true, false}) {
        sim::Section &section = report.addSection(
            spec_group ? "figure7" : "figure8");
        section.caption = spec_group ? "\nFigure 7 (SPECint95)\n"
                                     : "\nFigure 8 (non-SPEC)\n";
        section.columns = {{"Benchmark"},
                           {"path CHP (%)"},
                           {"pattern CHP (%)"},
                           {"fixed length path (%)"},
                           {"variable length path (%)"},
                           {"ind branches"}};
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const auto &spec = suite[i];
            if (spec.isSpec != spec_group)
                continue;
            const auto &row = rows[i];
            section.addRow(
                spec.name,
                {
                    sim::Cell::text(spec.name
                                    + (spec.indirectHeavy ? " *" : "")),
                    sim::Cell::percent(row.entry(sim::names::chpPath).rate),
                    sim::Cell::percent(
                        row.entry(sim::names::chpPattern).rate),
                    sim::Cell::percent(row.entry(sim::names::flp).rate),
                    sim::Cell::percent(row.entry(sim::names::vlp).rate),
                    sim::Cell::scaled(row.entry(sim::names::vlp).branches),
                });
        }
    }
}

} // namespace bench
