/**
 * @file
 * Related-work shootout (ours — beyond the paper's own tables):
 * positions the variable length path predictor against the rest of
 * the 1997/98 design space the paper cites.
 *
 * Conditional @ 16 KB: bimodal, GAs, gselect, gshare, agree, bi-mode,
 * DHLF-gshare, elastic gshare (profiled pattern lengths — Tarlescu et
 * al.), hybrid, FLP, VLP.
 * Indirect @ 2 KB: BTB, CHP pattern, CHP path, cascaded, dual-length
 * path hybrid (Driesen & Hölzle), FLP, VLP.
 *
 * The elastic-vs-VLP column answers the paper's implicit question: how
 * much of the win is per-branch length selection (elastic has it too)
 * and how much is *path* versus *pattern* history (only VLP has
 * paths).
 */

#include <memory>

#include "bench_common.h"

#include "core/dynamic_path.h"
#include "core/path_predictor.h"
#include "core/profiler.h"
#include "predictors/agree.h"
#include "predictors/bimodal.h"
#include "predictors/bimode.h"
#include "predictors/btb.h"
#include "predictors/cascaded.h"
#include "predictors/dhlf.h"
#include "predictors/dual_length.h"
#include "predictors/elastic.h"
#include "predictors/gselect.h"
#include "predictors/gshare.h"
#include "predictors/hybrid.h"
#include "predictors/budget.h"
#include "predictors/target_cache.h"
#include "predictors/two_level.h"
#include "sim/simulator.h"
#include "workload/benchmarks.h"

namespace {

using namespace vlp;

const char *const condBenchmarks[] = {"gcc", "go", "perl", "vortex"};
const char *const indBenchmarks[] = {"gcc", "perl", "li", "gs"};

/** One benchmark's column: predictor display names plus their rates. */
struct ShootoutColumn
{
    std::vector<std::string> names;
    std::vector<double> rates;
};

ShootoutColumn
conditionalColumn(vlp::sim::ExperimentContext &context,
                  vlp::sim::ParallelRunner &runner,
                  const std::string &name)
{
    constexpr std::size_t bytes = 16384;
    const unsigned k = pred::conditionalIndexBits(bytes);
    const auto &spec = workload::findBenchmark(name);
    const auto profile_trace =
        context.trace(spec, workload::InputKind::Profile);
    const auto test_trace =
        context.trace(spec, workload::InputKind::Test);

    // Profiled artifacts for the two profile-driven predictors.
    core::ProfileOptions options;
    options.indexBits = k;
    core::Profiler vlp_profiler(options, false);
    profile_trace->reset();
    const core::HashAssignment assignment =
        vlp_profiler.profile(*profile_trace);
    pred::ElasticProfiler elastic_profiler(k);
    profile_trace->reset();
    const pred::PatternLengthAssignment pattern_lengths =
        elastic_profiler.profile(*profile_trace);

    pred::BimodalPredictor bimodal(k);
    pred::TwoLevelPredictor gas(pred::HistoryScope::Global, k - 2, 2);
    pred::GselectPredictor gselect(k);
    pred::GsharePredictor gshare(k);
    pred::AgreePredictor agree(k);
    pred::BiModePredictor bimode(k - 1); // 3 banks ≈ same budget
    pred::DhlfGsharePredictor dhlf(k);
    pred::ElasticGsharePredictor elastic(k, pattern_lengths);
    pred::HybridPredictor hybrid(
        std::make_unique<pred::GsharePredictor>(k - 1),
        std::make_unique<pred::BimodalPredictor>(k - 1), k - 1);
    core::PathConditionalPredictor flp(k, 5);
    core::DynamicPathConditionalPredictor dynamic_vlp(k);
    core::PathConditionalPredictor vlp(k, assignment);

    sim::Simulator simulator;
    for (pred::ConditionalPredictor *predictor :
         {static_cast<pred::ConditionalPredictor *>(&bimodal),
          static_cast<pred::ConditionalPredictor *>(&gas),
          static_cast<pred::ConditionalPredictor *>(&gselect),
          static_cast<pred::ConditionalPredictor *>(&gshare),
          static_cast<pred::ConditionalPredictor *>(&agree),
          static_cast<pred::ConditionalPredictor *>(&bimode),
          static_cast<pred::ConditionalPredictor *>(&dhlf),
          static_cast<pred::ConditionalPredictor *>(&elastic),
          static_cast<pred::ConditionalPredictor *>(&hybrid),
          static_cast<pred::ConditionalPredictor *>(&flp),
          static_cast<pred::ConditionalPredictor *>(&dynamic_vlp),
          static_cast<pred::ConditionalPredictor *>(&vlp)}) {
        simulator.addConditional(predictor);
    }
    test_trace->reset();
    simulator.run(*test_trace);

    ShootoutColumn column;
    for (const auto &result : simulator.conditionalResults()) {
        runner.addPredictions(result.branches);
        column.names.push_back(result.name == "fixed length path"
                                   ? "fixed length path (len 5)"
                                   : result.name);
        column.rates.push_back(result.rate());
    }
    return column;
}

void
conditionalShootout(vlp::sim::ParallelRunner &runner,
                    vlp::sim::Report &report)
{
    sim::Section &section = report.addSection("conditional");
    section.caption =
        "\nConditional predictors @ 16 KB (mispredict %):\n";
    section.columns = {{"predictor"}, {"gcc"}, {"go"}, {"perl"},
                       {"vortex"}};
    // One column (benchmark) per shard; every column lists the same
    // predictors in registration order.
    const auto columns = runner.map<ShootoutColumn>(
        std::size(condBenchmarks),
        [&](sim::ExperimentContext &context, std::size_t i) {
            return conditionalColumn(context, runner,
                                     condBenchmarks[i]);
        });

    for (std::size_t i = 0; i < columns.front().names.size(); ++i) {
        const std::string &name = columns.front().names[i];
        std::vector<sim::Cell> cells = {sim::Cell::text(name)};
        for (const ShootoutColumn &column : columns)
            cells.push_back(sim::Cell::percent(column.rates[i]));
        section.addRow(name, std::move(cells));
    }
}

ShootoutColumn
indirectColumn(vlp::sim::ExperimentContext &context,
               vlp::sim::ParallelRunner &runner,
               const std::string &name)
{
    constexpr std::size_t bytes = 2048;
    const unsigned k = pred::indirectIndexBits(bytes);
    const auto &spec = workload::findBenchmark(name);
    const auto profile_trace =
        context.trace(spec, workload::InputKind::Profile);
    const auto test_trace =
        context.trace(spec, workload::InputKind::Test);

    core::ProfileOptions options;
    options.indexBits = k;
    core::Profiler profiler(options, true);
    profile_trace->reset();
    const core::HashAssignment assignment =
        profiler.profile(*profile_trace);

    pred::BtbPredictor btb(k);
    pred::PatternTargetCache chp_pattern(k);
    pred::PathTargetCache chp_path(k);
    pred::CascadedPredictor cascaded(k - 1, k - 1);
    // Two half-size tables + selector ≈ the same budget.
    pred::DualLengthIndirectPredictor dual(k - 1);
    core::PathIndirectPredictor flp(k, 5);
    core::DynamicPathIndirectPredictor dynamic_vlp(k);
    core::PathIndirectPredictor vlp(k, assignment);

    sim::Simulator simulator;
    for (pred::IndirectPredictor *predictor :
         {static_cast<pred::IndirectPredictor *>(&btb),
          static_cast<pred::IndirectPredictor *>(&chp_pattern),
          static_cast<pred::IndirectPredictor *>(&chp_path),
          static_cast<pred::IndirectPredictor *>(&cascaded),
          static_cast<pred::IndirectPredictor *>(&dual),
          static_cast<pred::IndirectPredictor *>(&flp),
          static_cast<pred::IndirectPredictor *>(&dynamic_vlp),
          static_cast<pred::IndirectPredictor *>(&vlp)}) {
        simulator.addIndirect(predictor);
    }
    test_trace->reset();
    simulator.run(*test_trace);

    ShootoutColumn column;
    for (const auto &result : simulator.indirectResults()) {
        runner.addPredictions(result.branches);
        column.names.push_back(result.name == "fixed length path"
                                   ? "fixed length path (len 5)"
                                   : result.name);
        column.rates.push_back(result.rate());
    }
    return column;
}

void
indirectShootout(vlp::sim::ParallelRunner &runner,
                 vlp::sim::Report &report)
{
    sim::Section &section = report.addSection("indirect");
    section.caption =
        "\nIndirect predictors @ 2 KB (mispredict %):\n";
    section.columns = {{"predictor"}, {"gcc"}, {"perl"}, {"li"},
                       {"gs"}};
    const auto columns = runner.map<ShootoutColumn>(
        std::size(indBenchmarks),
        [&](sim::ExperimentContext &context, std::size_t i) {
            return indirectColumn(context, runner, indBenchmarks[i]);
        });

    for (std::size_t i = 0; i < columns.front().names.size(); ++i) {
        const std::string &name = columns.front().names[i];
        std::vector<sim::Cell> cells = {sim::Cell::text(name)};
        for (const ShootoutColumn &column : columns)
            cells.push_back(sim::Cell::percent(column.rates[i]));
        section.addRow(name, std::move(cells));
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Driver driver(
        "bench_related_work",
        "Related-work shootout (extension, not a paper table)",
        "VLP vs the cited 1997/98 design space; elastic "
        "gshare isolates per-branch length selection from "
        "path-vs-pattern history");
    return driver.run(argc, argv,
                      [](vlp::sim::ParallelRunner &runner,
                         vlp::sim::Report &report) {
                          conditionalShootout(runner, report);
                          indirectShootout(runner, report);
                      });
}
