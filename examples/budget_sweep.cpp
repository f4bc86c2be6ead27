/**
 * @file
 * Hardware-budget exploration: for one benchmark, sweep the predictor
 * table size and print the misprediction-rate curves of every
 * conditional predictor in the repository — gshare, bimodal, GAs, PAs,
 * DHLF-gshare, a gshare+bimodal hybrid, and fixed/variable length
 * path. A quick way to see where each scheme's budget is best spent.
 *
 * Usage: budget_sweep [benchmark]
 */

#include <iostream>
#include <memory>
#include <vector>

#include "core/path_predictor.h"
#include "core/profiler.h"
#include "predictors/bimodal.h"
#include "predictors/budget.h"
#include "predictors/dhlf.h"
#include "predictors/gshare.h"
#include "predictors/hybrid.h"
#include "predictors/two_level.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/benchmarks.h"

int
main(int argc, char **argv)
{
    using namespace vlp;

    const std::string name = argc > 1 ? argv[1] : "gcc";
    const workload::BenchmarkSpec &spec = workload::findBenchmark(name);

    std::cout << "conditional predictor budget sweep on " << spec.name
              << " (test input)\n";

    trace::VectorTraceSource profile_trace =
        workload::generateTrace(spec, workload::InputKind::Profile);
    trace::VectorTraceSource test_trace =
        workload::generateTrace(spec, workload::InputKind::Test);

    util::TablePrinter table({"size (KB)", "bimodal", "GAs", "PAs",
                              "gshare", "DHLF-gshare", "hybrid",
                              "FLP(6)", "VLP"});

    for (const std::size_t bytes :
         {std::size_t{1024}, std::size_t{4096}, std::size_t{16384},
          std::size_t{65536}}) {
        const unsigned k = pred::conditionalIndexBits(bytes);

        // Profile a VLP assignment at this size.
        core::ProfileOptions options;
        options.indexBits = k;
        core::Profiler profiler(options, false);
        profile_trace.reset();
        const core::HashAssignment assignment =
            profiler.profile(profile_trace);

        pred::BimodalPredictor bimodal(k);
        // GAs/PAs: split the budget between history pattern bits and
        // PHT selection, the classic organization.
        pred::TwoLevelPredictor gas(pred::HistoryScope::Global, k - 2,
                                    2);
        pred::TwoLevelPredictor pas(pred::HistoryScope::PerAddress,
                                    k - 2, 2, 10);
        pred::GsharePredictor gshare(k);
        pred::DhlfGsharePredictor dhlf(k);
        // Hybrid splits the budget across its components.
        pred::HybridPredictor hybrid(
            std::make_unique<pred::GsharePredictor>(k - 1),
            std::make_unique<pred::BimodalPredictor>(k - 1), k - 1);
        core::PathConditionalPredictor flp(k, 6);
        core::PathConditionalPredictor vlp(k, assignment);

        sim::Simulator simulator;
        simulator.addConditional(&bimodal);
        simulator.addConditional(&gas);
        simulator.addConditional(&pas);
        simulator.addConditional(&gshare);
        simulator.addConditional(&dhlf);
        simulator.addConditional(&hybrid);
        simulator.addConditional(&flp);
        simulator.addConditional(&vlp);

        test_trace.reset();
        simulator.run(test_trace);

        std::vector<std::string> row = {
            util::formatDouble(bytes / 1024.0, 0)};
        for (const auto &result : simulator.conditionalResults())
            row.push_back(util::formatDouble(result.rate(), 2));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "(hybrid and two-level sizes differ slightly from "
                 "the nominal budget; see sizeBytes() of each)\n";
    return 0;
}
