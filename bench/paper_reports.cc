/**
 * @file
 * Table 2 and Figures 5 & 6, 7 & 8 and 9 report builders.
 */

#include "paper_reports.h"

#include <iterator>

#include "bench_common.h"
#include "predictors/budget.h"
#include "sim/experiment.h"
#include "workload/benchmarks.h"

namespace bench {

using namespace vlp;

void
buildTable2(sim::ParallelRunner &runner, sim::Report &report)
{
    struct Budget
    {
        std::size_t bytes;
        bool indirect;
        unsigned paperLength;
    };
    const Budget budgets[] = {
        {1024, false, 6},  {4096, false, 9},  {16384, false, 14},
        {65536, false, 16}, {262144, false, 23}, {512, true, 11},
        {2048, true, 21},  {8192, true, 21},  {32768, true, 21},
    };
    // All nine suite averages in flight at once, so no worker idles at
    // a budget boundary waiting for the last sweep of that budget.
    const auto averages = runner.map<std::vector<double>>(
        std::size(budgets), [&](sim::ExperimentContext &, std::size_t i) {
            return runner.averageSweep(budgets[i].bytes,
                                       budgets[i].indirect);
        });

    for (const bool indirect : {false, true}) {
        sim::Section &section =
            report.addSection(indirect ? "indirect" : "conditional");
        section.caption = indirect ? "\nIndirect Branches\n"
                                   : "\nConditional Branches\n";
        section.columns = {{"Table Size (KB)"},
                           {"Path Length"},
                           {"avg mispredict (%)"},
                           {"paper length"}};
        for (std::size_t i = 0; i < std::size(budgets); ++i) {
            const Budget &budget = budgets[i];
            if (budget.indirect != indirect)
                continue;
            const unsigned best = sim::argminLength(averages[i]);
            section.addRow(std::to_string(budget.bytes),
                           {
                               sim::Cell::real(budget.bytes / 1024.0,
                                               indirect ? 1 : 0),
                               sim::Cell::count(best),
                               sim::Cell::percent(averages[i][best - 1]),
                               sim::Cell::count(budget.paperLength),
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

void
buildFig9(sim::ParallelRunner &runner, sim::Report &report)
{
    const auto &spec = workload::findBenchmark("gcc");

    sim::Section &section = report.addSection("sizes");
    section.columns = {{"Size (KB)"},
                       {"gshare (%)"},
                       {"fixed length path (%)"},
                       {"fixed length path (tuned) (%)"},
                       {"variable length path (%)"},
                       {"global len"},
                       {"tuned len"}};

    // Each table size is an independent full-suite sweep plus a gcc
    // comparison, so the shard unit here is the size, not the
    // benchmark; rows come back in size order.
    const std::vector<std::size_t> sizes = {1024, 4096, 16384, 65536,
                                            262144};
    const auto rows = runner.map<std::vector<sim::Cell>>(
        sizes.size(),
        [&](sim::ExperimentContext &context, std::size_t i) {
            const std::size_t bytes = sizes[i];
            // Through the runner, so the step-1 sweeps count once per
            // budget in the run summary.
            const unsigned global_length =
                runner.globalLength(bytes, false);
            const unsigned tuned_length =
                context
                    .sweep(spec, pred::conditionalIndexBits(bytes), false)
                    .bestLength();
            const auto row = sim::compare(context, spec, bytes,
                                          global_length, false, true);
            for (const auto &entry : row.entries)
                runner.addPredictions(entry.branches);
            return std::vector<sim::Cell>{
                sim::Cell::real(bytes / 1024.0, 0),
                sim::Cell::percent(row.entry(sim::names::gshare).rate),
                sim::Cell::percent(row.entry(sim::names::flp).rate),
                sim::Cell::percent(row.entry(sim::names::flpTuned).rate),
                sim::Cell::percent(row.entry(sim::names::vlp).rate),
                sim::Cell::count(global_length),
                sim::Cell::count(tuned_length),
            };
        });
    for (std::size_t i = 0; i < sizes.size(); ++i)
        section.addRow(std::to_string(sizes[i]),
                       std::vector<sim::Cell>(rows[i]));
    section.footer =
        "\npaper series (approx.): gshare 13/8.8/7.5/6.5/6, "
        "VLP 6.5/4.3/3.6/3.2/3 — the paper's gcc headline is "
        "VLP 4.3% vs gshare 8.8% at 4K bytes\n";
}

} // namespace bench
