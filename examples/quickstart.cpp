/**
 * @file
 * Quickstart: generate a benchmark trace, profile the variable length
 * path predictor on the profile input, and compare it against gshare
 * on the test input — the paper's headline experiment in ~60 lines.
 *
 * Usage: quickstart [benchmark] [table-bytes]
 * Defaults: gcc with a 4K byte conditional predictor (the abstract's
 * configuration: the paper reports VLP 4.3% vs gshare 8.8%).
 */

#include <cstdlib>
#include <iostream>

#include "core/path_predictor.h"
#include "core/profiler.h"
#include "predictors/budget.h"
#include "predictors/gshare.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "workload/benchmarks.h"

int
main(int argc, char **argv)
{
    using namespace vlp;

    const std::string name = argc > 1 ? argv[1] : "gcc";
    const std::size_t bytes = argc > 2 ? std::strtoul(argv[2], nullptr, 0)
                                       : 4096;

    const workload::BenchmarkSpec &spec = workload::findBenchmark(name);
    const unsigned index_bits = pred::conditionalIndexBits(bytes);

    std::cout << "benchmark: " << spec.name << ", table: " << bytes
              << " bytes (k=" << index_bits << ")\n";

    // 1. Generate the profile-input trace and run the paper's two-step
    //    profiling heuristic to pick a hash function number per branch.
    std::cout << "profiling..." << std::flush;
    trace::VectorTraceSource profile_trace =
        workload::generateTrace(spec, workload::InputKind::Profile);
    core::ProfileOptions options;
    options.indexBits = index_bits;
    core::Profiler profiler(options, false);
    const core::HashAssignment assignment =
        profiler.profile(profile_trace);
    std::cout << " assigned " << assignment.size()
              << " branches (default length "
              << assignment.defaultLength() << ")\n";
    std::cout << "length histogram: "
              << assignment.lengthHistogram().toString() << "\n";

    // 2. Evaluate on the (different) test input against gshare.
    trace::VectorTraceSource test_trace =
        workload::generateTrace(spec, workload::InputKind::Test);

    pred::GsharePredictor gshare(index_bits);
    core::PathConditionalPredictor vlp(index_bits, assignment);

    sim::Simulator simulator;
    simulator.addConditional(&gshare);
    simulator.addConditional(&vlp);
    simulator.run(test_trace);

    for (const auto &result : simulator.conditionalResults()) {
        std::cout << result.name << ": "
                  << util::formatDouble(result.rate(), 2)
                  << "% misprediction rate over "
                  << util::formatScaled(result.branches)
                  << " conditional branches\n";
    }
    const auto ras = simulator.rasResult();
    std::cout << ras.name << ": " << util::formatDouble(ras.rate(), 2)
              << "% over " << util::formatScaled(ras.branches)
              << " returns\n";
    return 0;
}
