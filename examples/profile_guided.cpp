/**
 * @file
 * Profile-guided prediction walkthrough: the full workflow of Section
 * 3.5 made visible.
 *
 *  1. Generate a benchmark's *profile*-input trace and run step 1 (the
 *     N fixed-length sweeps), printing the accuracy-vs-length curve.
 *  2. Run step 2 (iterated candidate selection), print the resulting
 *     hash-number distribution, and save the assignment to a file —
 *     the artifact a compiler would encode into branch opcodes
 *     (Section 4.2).
 *  3. Reload the assignment and evaluate fixed vs tuned vs variable
 *     length path predictors on the *test* input.
 *
 * Usage: profile_guided [benchmark] [table-bytes] [assignment-file]
 */

#include <cstdlib>
#include <iostream>

#include "core/path_predictor.h"
#include "core/profiler.h"
#include "predictors/budget.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/benchmarks.h"

int
main(int argc, char **argv)
{
    using namespace vlp;

    const std::string name = argc > 1 ? argv[1] : "perl";
    const std::size_t bytes =
        argc > 2 ? std::strtoul(argv[2], nullptr, 0) : 16384;
    const std::string assignment_path =
        argc > 3 ? argv[3] : "/tmp/vlpsim_assignment.txt";

    const workload::BenchmarkSpec &spec = workload::findBenchmark(name);
    const unsigned index_bits = pred::conditionalIndexBits(bytes);

    // ---- Step 1: sweep all fixed path lengths on the profile input.
    std::cout << "=== step 1: fixed-length sweeps (" << spec.name
              << ", profile input, " << bytes << " bytes) ===\n";
    trace::VectorTraceSource profile_trace =
        workload::generateTrace(spec, workload::InputKind::Profile);

    core::ProfileOptions options;
    options.indexBits = index_bits;
    core::Profiler profiler(options, false);
    const core::FixedLengthSweep &sweep =
        profiler.runStep1(profile_trace);

    std::cout << "path length -> misprediction rate (%):\n";
    for (unsigned length = 1; length <= core::maxPathLength; ++length) {
        std::cout << "  " << length << ": "
                  << util::formatDouble(sweep.rate(length), 2)
                  << (length == sweep.bestLength() ? "   <- best\n"
                                                   : "\n");
    }

    // ---- Step 2: iterated candidate selection.
    std::cout << "\n=== step 2: candidate selection (7 iterations) "
                 "===\n";
    const core::HashAssignment assignment =
        profiler.runStep2(profile_trace);
    std::cout << "assigned " << assignment.size()
              << " static branches; default length "
              << assignment.defaultLength() << "\n"
              << "length histogram: "
              << assignment.lengthHistogram().toString() << "\n";

    assignment.save(assignment_path);
    std::cout << "assignment saved to " << assignment_path << "\n";

    // ---- Evaluate on the test input, from the saved artifact.
    const core::HashAssignment loaded =
        core::HashAssignment::load(assignment_path);

    core::PathConditionalPredictor flp(index_bits,
                                       assignment.defaultLength());
    core::PathConditionalPredictor tuned(index_bits,
                                         sweep.bestLength());
    core::PathConditionalPredictor vlp(index_bits, loaded);

    sim::Simulator simulator;
    simulator.addConditional(&flp);
    simulator.addConditional(&tuned);
    simulator.addConditional(&vlp);

    trace::VectorTraceSource test_trace =
        workload::generateTrace(spec, workload::InputKind::Test);
    simulator.run(test_trace);

    std::cout << "\n=== evaluation on the test input ===\n";
    util::TablePrinter table({"predictor", "mispredict (%)"});
    const auto results = simulator.conditionalResults();
    table.addRow({"fixed length path (default length)",
                  util::formatDouble(results[0].rate(), 2)});
    table.addRow({"fixed length path (tuned length)",
                  util::formatDouble(results[1].rate(), 2)});
    table.addRow({"variable length path (profiled)",
                  util::formatDouble(results[2].rate(), 2)});
    table.print(std::cout);
    return 0;
}
