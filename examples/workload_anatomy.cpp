/**
 * @file
 * Workload anatomy: dissects where a benchmark's mispredictions come
 * from, by branch behaviour class.
 *
 * The synthetic programs know each conditional branch's ground-truth
 * behaviour (loop / path-correlated / pattern-correlated / biased), so
 * this example attributes every predictor's misses to those classes —
 * the analysis behind Section 5.3's explanation of *why* variable
 * length path prediction works: path-correlated branches are exactly
 * the class gshare cannot fix and VLP can.
 *
 * Usage: workload_anatomy [benchmark] [table-bytes]
 */

#include <cstdlib>
#include <iostream>
#include <map>

#include "core/path_predictor.h"
#include "core/profiler.h"
#include "predictors/budget.h"
#include "predictors/gshare.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/benchmarks.h"
#include "workload/program.h"

int
main(int argc, char **argv)
{
    using namespace vlp;

    const std::string name = argc > 1 ? argv[1] : "gcc";
    const std::size_t bytes =
        argc > 2 ? std::strtoul(argv[2], nullptr, 0) : 16384;
    const auto &spec = workload::findBenchmark(name);
    const unsigned index_bits = pred::conditionalIndexBits(bytes);

    // Ground truth: behaviour class per static conditional branch.
    workload::Program program = workload::buildProgram(spec);
    std::map<std::uint64_t, std::string> classes;
    for (const auto &block : program.blocks()) {
        if (block.term.kind == workload::TermKind::CondBranch)
            classes[block.addr] = block.term.condBehavior->name();
    }

    // Profile, then race gshare vs VLP with per-branch tracking.
    auto profile_trace =
        workload::generateTrace(spec, workload::InputKind::Profile);
    core::ProfileOptions options;
    options.indexBits = index_bits;
    core::Profiler profiler(options, false);
    const core::HashAssignment assignment =
        profiler.profile(profile_trace);

    pred::GsharePredictor gshare(index_bits);
    core::PathConditionalPredictor vlp(index_bits, assignment);
    sim::Simulator simulator;
    simulator.setTrackPerBranch(true);
    simulator.addConditional(&gshare);
    simulator.addConditional(&vlp);
    auto test_trace =
        workload::generateTrace(spec, workload::InputKind::Test);
    simulator.run(test_trace);

    // Aggregate per class: executions, per-predictor misses, and the
    // mean profiled path length.
    struct ClassStats
    {
        std::uint64_t executions = 0;
        std::uint64_t gshareMisses = 0;
        std::uint64_t vlpMisses = 0;
        std::uint64_t lengthSum = 0;
        std::uint64_t statics = 0;
    };
    std::map<std::string, ClassStats> aggregate;
    const auto &gshare_stats = simulator.conditionalPerBranch(0);
    const auto &vlp_stats = simulator.conditionalPerBranch(1);
    for (const auto &[pc, accuracy] : gshare_stats) {
        const auto it = classes.find(pc);
        ClassStats &stats =
            aggregate[it == classes.end() ? "?" : it->second];
        stats.executions += accuracy.executions;
        stats.gshareMisses += accuracy.mispredictions;
        stats.lengthSum += assignment.lookup(pc);
        ++stats.statics;
    }
    for (const auto &[pc, accuracy] : vlp_stats) {
        const auto it = classes.find(pc);
        aggregate[it == classes.end() ? "?" : it->second].vlpMisses +=
            accuracy.mispredictions;
    }

    std::uint64_t total = 0;
    for (const auto &[cls, stats] : aggregate)
        total += stats.executions;

    std::cout << spec.name << " @ " << bytes
              << " bytes: misprediction anatomy by behaviour class\n";
    util::TablePrinter table({"class", "dyn share (%)",
                              "gshare miss (%)", "VLP miss (%)",
                              "gshare pts", "VLP pts",
                              "mean VLP length"});
    for (const auto &[cls, stats] : aggregate) {
        table.addRow({
            cls,
            util::formatDouble(
                util::percent(stats.executions, total), 1),
            util::formatDouble(
                util::percent(stats.gshareMisses, stats.executions),
                2),
            util::formatDouble(
                util::percent(stats.vlpMisses, stats.executions), 2),
            util::formatDouble(
                util::percent(stats.gshareMisses, total), 2),
            util::formatDouble(util::percent(stats.vlpMisses, total),
                               2),
            util::formatDouble(
                stats.statics
                    ? static_cast<double>(stats.lengthSum)
                          / static_cast<double>(stats.statics)
                    : 0.0,
                1),
        });
    }
    table.print(std::cout);
    std::cout << "\n\"pts\" = percentage points of the overall "
                 "misprediction rate contributed by the class.\n"
                 "Section 5.3's claim shows up as the path-correlated "
                 "row: large for gshare, small for VLP.\n";
    return 0;
}
