/**
 * @file
 * Regenerates the abstract's headline numbers:
 *  - gcc conditional branches, 4K byte budget: VLP 4.3% vs gshare 8.8%
 *  - gcc indirect branches, 512 byte budget: VLP 27.7% vs 44.2% for
 *    the best competing predictor.
 */

#include <sstream>

#include "bench_common.h"

#include "workload/benchmarks.h"

int
main(int argc, char **argv)
{
    using namespace vlp;

    bench::Driver driver(
        "bench_headline",
        "Abstract headline: gcc at 4K bytes (conditional) and 512 "
        "bytes (indirect)",
        "test input");
    return driver.run(argc, argv, [](sim::ParallelRunner &runner,
                                     sim::Report &report) {
        const auto &spec = workload::findBenchmark("gcc");

        // The conditional and indirect headlines are independent
        // experiments, so they form a two-item shard; each worker
        // renders its block to a string and the blocks print in
        // fixed order.
        const auto blocks = runner.map<std::string>(
            2, [&](sim::ExperimentContext &context, std::size_t i) {
                std::ostringstream out;
                if (i == 0) {
                    const unsigned global_length =
                        context.globalLength(4096, false);
                    const auto row = sim::compare(
                        context, spec, 4096, global_length, false);
                    for (const auto &entry : row.entries)
                        runner.addPredictions(entry.branches);
                    out << "\nconditional, 4K bytes:\n"
                        << "  gshare:               "
                        << bench::rate(
                               row.entry(sim::names::gshare).rate)
                        << "%   (paper: 8.8%)\n"
                        << "  variable length path: "
                        << bench::rate(
                               row.entry(sim::names::vlp).rate)
                        << "%   (paper: 4.3%)\n";
                } else {
                    const unsigned global_length =
                        context.globalLength(512, true);
                    const auto row = sim::compare(
                        context, spec, 512, global_length, true);
                    for (const auto &entry : row.entries)
                        runner.addPredictions(entry.branches);
                    const auto &path =
                        row.entry(sim::names::chpPath);
                    const auto &pattern =
                        row.entry(sim::names::chpPattern);
                    const auto &best =
                        path.mispredictions < pattern.mispredictions
                            ? path
                            : pattern;
                    out << "\nindirect, 512 bytes:\n"
                        << "  best competing (" << best.predictor
                        << "): " << bench::rate(best.rate)
                        << "%   (paper: 44.2%)\n"
                        << "  variable length path: "
                        << bench::rate(
                               row.entry(sim::names::vlp).rate)
                        << "%   (paper: 27.7%)\n";
                }
                return out.str();
            });

        report.addText("conditional", blocks[0]);
        report.addText("indirect", blocks[1]);
    });
}
