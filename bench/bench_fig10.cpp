/**
 * @file
 * Regenerates Figure 10: indirect branch misprediction rates for gcc
 * over a range of predictor sizes (0.5K to 32K bytes) — the
 * Chang-Hao-Patt path and pattern target caches, fixed length path,
 * fixed length path (tuned), and variable length path.
 */

#include "bench_common.h"

#include "predictors/budget.h"
#include "workload/benchmarks.h"

namespace {

/** Everything one table size contributes to the printed figure. */
struct SizePoint
{
    vlp::sim::ComparisonRow row;
    unsigned globalLength = 0;
    unsigned tunedLength = 0;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace vlp;

    bench::Driver driver(
        "bench_fig10",
        "Figure 10: Indirect Misprediction Rates for Gcc",
        "predictor sizes 0.5K to 32K bytes, test input");
    return driver.run(argc, argv, [](sim::ParallelRunner &runner,
                                     sim::Report &report) {
        const auto &spec = workload::findBenchmark("gcc");

        sim::Section &section = report.addSection("sizes");
        section.columns = {{"Size (KB)"},
                           {"path CHP (%)"},
                           {"pattern CHP (%)"},
                           {"fixed length path (%)"},
                           {"fixed length path (tuned) (%)"},
                           {"variable length path (%)"},
                           {"global len"},
                           {"tuned len"}};

        const std::vector<std::size_t> sizes = {512, 2048, 8192,
                                                32768};
        const auto points = runner.map<SizePoint>(
            sizes.size(),
            [&](sim::ExperimentContext &context, std::size_t i) {
                const std::size_t bytes = sizes[i];
                SizePoint point;
                point.globalLength =
                    context.globalLength(bytes, true);
                point.tunedLength =
                    context
                        .sweep(spec, pred::indirectIndexBits(bytes), true)
                        .bestLength();
                point.row = sim::compare(
                    context, spec, bytes, point.globalLength, true, true);
                for (const auto &entry : point.row.entries)
                    runner.addPredictions(entry.branches);
                return point;
            });

        double flp_cut_at_32k = 0.0, vlp_cut_at_32k = 0.0;
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            const std::size_t bytes = sizes[i];
            const auto &row = points[i].row;
            section.addRow(
                std::to_string(bytes),
                {
                    sim::Cell::real(bytes / 1024.0, 1),
                    sim::Cell::percent(
                        row.entry(sim::names::chpPath).rate),
                    sim::Cell::percent(
                        row.entry(sim::names::chpPattern).rate),
                    sim::Cell::percent(
                        row.entry(sim::names::flp).rate),
                    sim::Cell::percent(
                        row.entry(sim::names::flpTuned).rate),
                    sim::Cell::percent(
                        row.entry(sim::names::vlp).rate),
                    sim::Cell::count(points[i].globalLength),
                    sim::Cell::count(points[i].tunedLength),
                });
            if (bytes == 32768) {
                const auto &path = row.entry(sim::names::chpPath);
                const auto &pattern =
                    row.entry(sim::names::chpPattern);
                const auto &best_competing =
                    path.mispredictions < pattern.mispredictions
                        ? path
                        : pattern;
                flp_cut_at_32k = bench::reduction(
                    best_competing, row.entry(sim::names::flp));
                vlp_cut_at_32k = bench::reduction(
                    best_competing, row.entry(sim::names::vlp));
            }
        }
        section.footer =
            "\nat 32K bytes, reduction vs best competing predictor: "
            "FLP "
            + bench::rate(flp_cut_at_32k) + "% (paper 29%), VLP "
            + bench::rate(vlp_cut_at_32k) + "% (paper 51%)\n";
    });
}
