/**
 * @file
 * Regenerates Figure 9: conditional branch misprediction rates for gcc
 * over a range of predictor sizes (1K to 256K bytes) — gshare, fixed
 * length path, fixed length path (tuned), and variable length path.
 * The global fixed length at each size is derived from profile-input
 * sweeps over the whole suite, exactly as in the paper's methodology.
 */

#include "bench_common.h"

#include "predictors/budget.h"
#include "workload/benchmarks.h"

int
main(int argc, char **argv)
{
    using namespace vlp;

    bench::Driver driver(
        "bench_fig9",
        "Figure 9: Conditional Misprediction Rates for Gcc",
        "predictor sizes 1K to 256K bytes, test input");
    return driver.run(argc, argv, [](sim::ParallelRunner &runner,
                                     sim::Report &report) {
        const auto &spec = workload::findBenchmark("gcc");

        sim::Section &section = report.addSection("sizes");
        section.columns = {{"Size (KB)"},
                           {"gshare (%)"},
                           {"fixed length path (%)"},
                           {"fixed length path (tuned) (%)"},
                           {"variable length path (%)"},
                           {"global len"},
                           {"tuned len"}};

        // Each table size is an independent full-suite sweep plus a
        // gcc comparison, so the shard unit here is the size, not
        // the benchmark; rows come back in size order.
        const std::vector<std::size_t> sizes = {1024, 4096, 16384,
                                                65536, 262144};
        const auto rows = runner.map<std::vector<sim::Cell>>(
            sizes.size(),
            [&](sim::ExperimentContext &context, std::size_t i) {
                const std::size_t bytes = sizes[i];
                const unsigned global_length =
                    context.globalLength(bytes, false);
                const unsigned tuned_length =
                    context
                        .sweep(spec, pred::conditionalIndexBits(bytes),
                               false)
                        .bestLength();
                const auto row = sim::compare(
                    context, spec, bytes, global_length, false, true);
                for (const auto &entry : row.entries)
                    runner.addPredictions(entry.branches);
                return std::vector<sim::Cell>{
                    sim::Cell::real(bytes / 1024.0, 0),
                    sim::Cell::percent(
                        row.entry(sim::names::gshare).rate),
                    sim::Cell::percent(
                        row.entry(sim::names::flp).rate),
                    sim::Cell::percent(
                        row.entry(sim::names::flpTuned).rate),
                    sim::Cell::percent(
                        row.entry(sim::names::vlp).rate),
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
    });
}
