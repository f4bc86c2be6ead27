/**
 * @file
 * Regenerates Table 3: indirect branch misprediction rates on the 8
 * benchmarks with frequent indirect branches, with a 2K byte
 * predictor, including the paper's reported values for comparison.
 */

#include <algorithm>
#include <array>
#include <map>

#include "bench_common.h"

#include "workload/benchmarks.h"

int
main(int argc, char **argv)
{
    using namespace vlp;

    bench::Driver driver(
        "bench_table3",
        "Table 3: Indirect Misprediction Rates on Selected "
        "Benchmarks",
        "2K byte predictor, test inputs");
    return driver.run(argc, argv, [](sim::ParallelRunner &runner,
                                     sim::Report &report) {
        constexpr std::size_t bytes = 2048;

        // Paper values: path, pattern, FLP, VLP.
        const std::map<std::string, std::array<double, 4>> paper = {
            {"m88ksim", {58.24, 41.31, 13.79, 15.96}},
            {"gcc", {50.42, 32.75, 27.64, 19.12}},
            {"li", {65.44, 27.88, 13.52, 10.36}},
            {"perl", {4.56, 9.54, 0.80, 0.49}},
            {"groff", {83.97, 25.00, 28.36, 14.10}},
            {"gs", {37.31, 18.12, 19.13, 13.68}},
            {"plot", {51.19, 11.00, 5.04, 4.06}},
            {"python", {42.87, 50.42, 34.75, 29.09}},
        };

        const unsigned global_length =
            runner.globalLength(bytes, true);

        std::vector<workload::BenchmarkSpec> specs;
        for (const auto &name : workload::indirectHeavyNames())
            specs.push_back(workload::findBenchmark(name));
        const auto rows =
            runner.compareSuite(specs, bytes, global_length, true);

        sim::Section &section = report.addSection("indirect-heavy");
        section.columns = {{"Benchmark"},     {"path (%)"},
                           {"pattern (%)"},   {"FLP (%)"},
                           {"VLP (%)"},       {"paper path"},
                           {"paper pattern"}, {"paper FLP"},
                           {"paper VLP"}};

        double reduction_vs_pattern_min = 1e9;
        double reduction_vs_pattern_max = 0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::string &name = specs[i].name;
            const auto &row = rows[i];
            const auto &published = paper.at(name);
            const auto &pattern = row.entry(sim::names::chpPattern);
            const auto &vlp = row.entry(sim::names::vlp);
            section.addRow(
                name,
                {
                    sim::Cell::text(name),
                    sim::Cell::percent(
                        row.entry(sim::names::chpPath).rate),
                    sim::Cell::percent(pattern.rate),
                    sim::Cell::percent(
                        row.entry(sim::names::flp).rate),
                    sim::Cell::percent(vlp.rate),
                    sim::Cell::percent(published[0]),
                    sim::Cell::percent(published[1]),
                    sim::Cell::percent(published[2]),
                    sim::Cell::percent(published[3]),
                });
            const double cut = bench::reduction(pattern, vlp);
            reduction_vs_pattern_min =
                std::min(reduction_vs_pattern_min, cut);
            reduction_vs_pattern_max =
                std::max(reduction_vs_pattern_max, cut);
        }
        section.footer =
            "\nVLP reduction vs the pattern-based target cache: "
            + bench::rate(reduction_vs_pattern_min) + "% to "
            + bench::rate(reduction_vs_pattern_max)
            + "%  (paper: 24.5% to 94.9%)\n";
    });
}
