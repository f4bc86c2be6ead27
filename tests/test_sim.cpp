/**
 * @file
 * Tests for the simulator and the experiment harness.
 */

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <gtest/gtest.h>
#include <memory>
#include <thread>
#include <vector>

#include "predictors/bimodal.h"
#include "predictors/gshare.h"
#include "predictors/target_cache.h"
#include "sim/experiment.h"
#include "sim/frontend.h"
#include "sim/simulator.h"
#include "util/cancel.h"
#include "workload/benchmarks.h"

namespace {

using namespace vlp;
using namespace vlp::sim;
using trace::BranchKind;
using trace::BranchRecord;

BranchRecord
make(BranchKind kind, std::uint64_t pc, std::uint64_t next,
     bool taken = true)
{
    BranchRecord record;
    record.pc = pc;
    record.nextPc = next;
    record.taken = taken;
    record.kind = kind;
    return record;
}

TEST(Simulator, CountsOnlyRelevantClasses)
{
    trace::VectorTraceSource trace;
    trace.append(make(BranchKind::Conditional, 0x400000, 0x400040));
    trace.append(make(BranchKind::Conditional, 0x400040, 0x400044,
                      false));
    trace.append(make(BranchKind::IndirectJump, 0x400044, 0x400100));
    trace.append(make(BranchKind::Unconditional, 0x400100, 0x400200));
    trace.append(make(BranchKind::DirectCall, 0x400200, 0x400300));
    trace.append(make(BranchKind::Return, 0x400300, 0x400204));

    pred::GsharePredictor gshare(10);
    pred::PatternTargetCache cache(7);
    Simulator simulator;
    simulator.addConditional(&gshare);
    simulator.addIndirect(&cache);
    simulator.run(trace);

    const auto cond_results = simulator.conditionalResults();
    ASSERT_EQ(cond_results.size(), 1u);
    EXPECT_EQ(cond_results[0].branches, 2u);
    EXPECT_EQ(cond_results[0].name, "gshare");
    EXPECT_EQ(cond_results[0].sizeBytes, gshare.sizeBytes());

    const auto ind_results = simulator.indirectResults();
    ASSERT_EQ(ind_results.size(), 1u);
    EXPECT_EQ(ind_results[0].branches, 1u);
}

TEST(Simulator, RasPredictsMatchedCallReturns)
{
    trace::VectorTraceSource trace;
    // call from 0x400000 -> return must come back to 0x400004.
    trace.append(make(BranchKind::DirectCall, 0x400000, 0x500000));
    trace.append(make(BranchKind::DirectCall, 0x500000, 0x600000));
    trace.append(make(BranchKind::Return, 0x600000, 0x500004));
    trace.append(make(BranchKind::Return, 0x500004, 0x400004));

    Simulator simulator;
    simulator.run(trace);
    const auto ras = simulator.rasResult();
    EXPECT_EQ(ras.branches, 2u);
    EXPECT_EQ(ras.mispredictions, 0u);
    EXPECT_DOUBLE_EQ(ras.rate(), 0.0);
}

TEST(Simulator, RasCountsMismatchedReturns)
{
    trace::VectorTraceSource trace;
    trace.append(make(BranchKind::DirectCall, 0x400000, 0x500000));
    // A return that goes somewhere else (longjmp-like).
    trace.append(make(BranchKind::Return, 0x500000, 0x999999));

    Simulator simulator;
    simulator.run(trace);
    EXPECT_EQ(simulator.rasResult().mispredictions, 1u);
}

TEST(Simulator, IdenticalPredictorsSeeIdenticalStreams)
{
    const auto &spec = workload::findBenchmark("compress");
    setenv("VLPSIM_SCALE", "0.02", 1);
    auto trace = workload::generateTrace(spec,
                                         workload::InputKind::Test);
    unsetenv("VLPSIM_SCALE");

    pred::GsharePredictor first(12), second(12);
    Simulator simulator;
    simulator.addConditional(&first);
    simulator.addConditional(&second);
    simulator.run(trace);
    const auto results = simulator.conditionalResults();
    EXPECT_EQ(results[0].mispredictions, results[1].mispredictions);
    EXPECT_EQ(results[0].branches, results[1].branches);
}

TEST(Simulator, PerBranchTracking)
{
    trace::VectorTraceSource trace;
    for (int i = 0; i < 10; ++i) {
        trace.append(make(BranchKind::Conditional, 0x400000, 0x400040));
        trace.append(make(BranchKind::Conditional, 0x400100, 0x400104,
                          false));
    }
    pred::BimodalPredictor bimodal(10);
    Simulator simulator;
    simulator.setTrackPerBranch(true);
    simulator.addConditional(&bimodal);
    simulator.run(trace);

    const auto &per_branch = simulator.conditionalPerBranch(0);
    ASSERT_EQ(per_branch.size(), 2u);
    EXPECT_EQ(per_branch.at(0x400000).executions, 10u);
    EXPECT_EQ(per_branch.at(0x400100).executions, 10u);
    // The always-taken branch warms up from weakly-not-taken: at
    // most a couple of early misses, none later.
    EXPECT_LE(per_branch.at(0x400000).mispredictions, 2u);
}

TEST(PredictorResult, RateComputation)
{
    PredictorResult result;
    result.branches = 200;
    result.mispredictions = 25;
    EXPECT_DOUBLE_EQ(result.rate(), 12.5);
    PredictorResult empty;
    EXPECT_DOUBLE_EQ(empty.rate(), 0.0);
}

TEST(ComparisonRow, EntryLookup)
{
    ComparisonRow row;
    row.benchmark = "gcc";
    row.entries.push_back({"gshare", 100, 10, 10.0});
    EXPECT_EQ(row.entry("gshare").mispredictions, 10u);
    EXPECT_THROW(row.entry("tage"), std::runtime_error);
}

TEST(Timing, BaseCyclesFromFetchWidth)
{
    TimingParameters parameters;
    parameters.instructionsPerBranch = 5.0;
    parameters.fetchWidth = 4.0;
    const auto estimate = estimateTiming(parameters, 1000, 0);
    EXPECT_DOUBLE_EQ(estimate.baseCycles, 1250.0);
    EXPECT_DOUBLE_EQ(estimate.mispredictCycles, 0.0);
    EXPECT_DOUBLE_EQ(estimate.totalCycles(), 1250.0);
    EXPECT_DOUBLE_EQ(estimate.ipc(5000.0), 4.0);
}

TEST(Timing, MispredictAndRepredictPenalties)
{
    TimingParameters parameters;
    parameters.mispredictPenaltyCycles = 10.0;
    parameters.repredictPenaltyCycles = 1.0;
    const auto estimate = estimateTiming(parameters, 1000, 50, 200);
    EXPECT_DOUBLE_EQ(estimate.mispredictCycles, 500.0);
    EXPECT_DOUBLE_EQ(estimate.repredictCycles, 200.0);
}

TEST(Timing, SpeedupOrdering)
{
    TimingParameters parameters;
    const auto bad = estimateTiming(parameters, 1000, 100);
    const auto good = estimateTiming(parameters, 1000, 10);
    EXPECT_GT(speedup(bad, good), 1.0);
    EXPECT_LT(speedup(good, bad), 1.0);
    // Fewer mispredictions with a small re-predict tax still wins
    // when the accuracy gap is this large.
    const auto good_taxed = estimateTiming(parameters, 1000, 10, 100);
    EXPECT_GT(speedup(bad, good_taxed), 1.0);
}

TEST(Timing, ZeroBranchesYieldZeroEstimate)
{
    // branches == 0 used to divide 0/0 into the rates; the estimate
    // must instead be the explicit all-zero result.
    TimingParameters parameters;
    const auto estimate = estimateTiming(parameters, 0, 0);
    EXPECT_DOUBLE_EQ(estimate.baseCycles, 0.0);
    EXPECT_DOUBLE_EQ(estimate.totalCycles(), 0.0);
    EXPECT_DOUBLE_EQ(estimate.ipc(0.0), 0.0);
    EXPECT_DOUBLE_EQ(estimate.ipc(5000.0), 0.0);
    EXPECT_DOUBLE_EQ(estimate.branchesPerCycle(), 0.0);
}

TEST(Timing, DegenerateFetchWidthYieldsZeroEstimate)
{
    TimingParameters parameters;
    parameters.fetchWidth = 0.0;
    const auto zero = estimateTiming(parameters, 1000, 50, 10);
    EXPECT_DOUBLE_EQ(zero.totalCycles(), 0.0);
    EXPECT_DOUBLE_EQ(zero.ipc(5000.0), 0.0);
    EXPECT_EQ(zero.branches, 1000u);
    EXPECT_EQ(zero.mispredictions, 50u);

    parameters.fetchWidth = std::nan("");
    const auto nan_width = estimateTiming(parameters, 1000, 50, 10);
    EXPECT_DOUBLE_EQ(nan_width.totalCycles(), 0.0);
    EXPECT_DOUBLE_EQ(nan_width.ipc(5000.0), 0.0);
}

TEST(Timing, RatesNeverProduceNanOrInfinity)
{
    TimingParameters parameters;
    const auto estimate = estimateTiming(parameters, 1000, 50);
    // Zero instructions over real cycles is 0, not 0/x ambiguity.
    EXPECT_DOUBLE_EQ(estimate.ipc(0.0), 0.0);
    // NaN instructions must not leak through the division.
    EXPECT_DOUBLE_EQ(estimate.ipc(std::nan("")), 0.0);
    EXPECT_TRUE(std::isfinite(estimate.branchesPerCycle()));

    FrontendResult blank;
    EXPECT_DOUBLE_EQ(blank.totalCycles(), 0.0);
    EXPECT_DOUBLE_EQ(blank.ipc(5000.0), 0.0);
    EXPECT_DOUBLE_EQ(blank.branchesPerCycle(), 0.0);
}

TEST(Timing, FromPredictorResult)
{
    TimingParameters parameters;
    PredictorResult result;
    result.branches = 2000;
    result.mispredictions = 40;
    const auto via_result = estimateTiming(parameters, result);
    const auto direct = estimateTiming(parameters, 2000, 40);
    EXPECT_DOUBLE_EQ(via_result.totalCycles(), direct.totalCycles());
}

class ExperimentHarness : public ::testing::Test
{
  protected:
    void SetUp() override { setenv("VLPSIM_SCALE", "0.05", 1); }
    void TearDown() override { unsetenv("VLPSIM_SCALE"); }
};

TEST_F(ExperimentHarness, CompareConditionalRowShape)
{
    ExperimentContext context;
    const auto &spec = workload::findBenchmark("li");
    const auto row = compare(context, spec, 4096, 4, false, true);
    EXPECT_EQ(row.benchmark, "li");
    ASSERT_EQ(row.entries.size(), 4u);
    EXPECT_EQ(row.entries[0].predictor, names::gshare);
    EXPECT_EQ(row.entries[1].predictor, names::flp);
    EXPECT_EQ(row.entries[2].predictor, names::flpTuned);
    EXPECT_EQ(row.entries[3].predictor, names::vlp);
    for (const auto &entry : row.entries) {
        EXPECT_GT(entry.branches, 0u);
        EXPECT_GE(entry.rate, 0.0);
        EXPECT_LE(entry.rate, 100.0);
    }
    // All predictors saw the same branches.
    EXPECT_EQ(row.entries[0].branches, row.entries[3].branches);
}

TEST_F(ExperimentHarness, CompareConditionalWithoutTuned)
{
    ExperimentContext context;
    const auto &spec = workload::findBenchmark("compress");
    const auto row = compare(context, spec, 4096, 4, false, false);
    ASSERT_EQ(row.entries.size(), 3u);
    EXPECT_EQ(row.entries[2].predictor, names::vlp);
}

TEST_F(ExperimentHarness, CompareIndirectRowShape)
{
    ExperimentContext context;
    const auto &spec = workload::findBenchmark("perl");
    const auto row = compare(context, spec, 2048, 2, true, true);
    ASSERT_EQ(row.entries.size(), 5u);
    EXPECT_EQ(row.entries[0].predictor, names::chpPath);
    EXPECT_EQ(row.entries[1].predictor, names::chpPattern);
    EXPECT_EQ(row.entries[2].predictor, names::flp);
    EXPECT_EQ(row.entries[3].predictor, names::flpTuned);
    EXPECT_EQ(row.entries[4].predictor, names::vlp);
    EXPECT_GT(row.entries[0].branches, 0u);
}

TEST_F(ExperimentHarness, SweepsAreCached)
{
    ExperimentContext context;
    const auto &spec = workload::findBenchmark("compress");
    const auto &first = context.sweep(spec, 12, false);
    const auto &second = context.sweep(spec, 12, false);
    EXPECT_EQ(&first, &second); // same cached object
    EXPECT_EQ(first.mispredictions.size(), core::maxPathLength);
    EXPECT_GT(first.branches, 0u);
}

TEST_F(ExperimentHarness, AssignmentsAreCached)
{
    ExperimentContext context;
    const auto &spec = workload::findBenchmark("compress");
    const auto &first = context.assignment(spec, 12, false);
    const auto &second = context.assignment(spec, 12, false);
    EXPECT_EQ(&first, &second);
    EXPECT_GT(first.size(), 0u);
}

TEST_F(ExperimentHarness, GlobalLengthWithinRange)
{
    ExperimentContext context;
    const auto average = context.averageSweep(1024, false);
    EXPECT_EQ(average.size(), core::maxPathLength);
    const unsigned global = context.globalLength(1024, false);
    EXPECT_GE(global, 1u);
    EXPECT_LE(global, core::maxPathLength);
    // The reported minimum really is the curve's minimum.
    for (unsigned length = 1; length <= average.size(); ++length)
        EXPECT_GE(average[length - 1] + 1e-12, average[global - 1]);
}

TEST_F(ExperimentHarness, GlobalIndirectLengthWithinRange)
{
    ExperimentContext context;
    const unsigned global = context.globalLength(2048, true);
    EXPECT_GE(global, 1u);
    EXPECT_LE(global, core::maxPathLength);
}

TEST_F(ExperimentHarness, HistoryOptionsKeyedSeparately)
{
    // Sweeps with different path-history options must not share cache
    // entries: rotation changes the indices, so (in general) the
    // misprediction counts too.
    ExperimentContext context;
    const auto &spec = workload::findBenchmark("li");
    core::PathHistoryOptions rotated;
    core::PathHistoryOptions plain;
    plain.rotateTargets = false;
    const auto &with_rotation =
        context.sweep(spec, 12, false, rotated);
    const auto &without_rotation =
        context.sweep(spec, 12, false, plain);
    EXPECT_NE(&with_rotation, &without_rotation);
    // Length-1 indices ignore rotation entirely, so compare a deep
    // length where rotation matters.
    EXPECT_NE(with_rotation.mispredictions[15],
              without_rotation.mispredictions[15]);
}

/** Every record @p source yields from its start. */
std::vector<trace::BranchRecord>
drain(trace::TraceSource &source)
{
    source.reset();
    std::vector<trace::BranchRecord> records;
    trace::BranchRecord record;
    while (source.next(record))
        records.push_back(record);
    return records;
}

TEST_F(ExperimentHarness, EachTraceIsGeneratedOncePerContext)
{
    // More distinct traces than any per-worker cache would keep, each
    // requested and dropped twice: the memo generates each once and
    // replays exactly what the generator produces.
    ExperimentContext context;
    const char *names[] = {"compress", "li", "pgp", "go", "plot", "ss"};
    for (int round = 0; round < 2; ++round) {
        for (const char *name : names) {
            context.trace(workload::findBenchmark(name),
                          workload::InputKind::Test);
        }
        EXPECT_EQ(context.traceGenerations(), std::size(names));
    }
    const auto &spec = workload::findBenchmark("compress");
    const auto cursor = context.trace(spec, workload::InputKind::Test);
    EXPECT_EQ(drain(*cursor),
              workload::generateTrace(spec, workload::InputKind::Test)
                  .records());
    EXPECT_EQ(context.traceGenerations(), std::size(names));
}

TEST_F(ExperimentHarness, TraceCursorsReplayIndependently)
{
    // Each trace() call is a fresh cursor over one shared trace, so
    // several workers can replay it at once.
    ExperimentContext context;
    const auto &spec = workload::findBenchmark("compress");
    const auto held = context.trace(spec, workload::InputKind::Test);
    const auto other = context.trace(spec, workload::InputKind::Test);
    EXPECT_NE(other.get(), held.get());
    EXPECT_EQ(&dynamic_cast<trace::CompactTraceCursor &>(*other).trace(),
              &dynamic_cast<trace::CompactTraceCursor &>(*held).trace());
    const std::vector<trace::BranchRecord> records = drain(*held);
    ASSERT_GT(records.size(), 2u);

    // Advance one cursor partway; the other still starts at record 0.
    held->reset();
    trace::BranchRecord record;
    ASSERT_TRUE(held->next(record));
    ASSERT_TRUE(held->next(record));
    EXPECT_EQ(record, records[1]);
    other->reset();
    ASSERT_TRUE(other->next(record));
    EXPECT_EQ(record, records[0]);

    // Both run to the end on their own count.
    std::size_t held_count = 2;
    while (held->next(record))
        ++held_count;
    std::size_t other_count = 1;
    while (other->next(record))
        ++other_count;
    EXPECT_EQ(held_count, records.size());
    EXPECT_EQ(other_count, records.size());
}

TEST_F(ExperimentHarness, FailedTraceGenerationRethrowsAndRetries)
{
    // A generation that fails (here: the context is cancelled) fails
    // every caller that asked for the trace at the same time, caches
    // nothing, and the next call generates afresh.
    ExperimentContext context;
    auto token = std::make_shared<util::CancelToken>();
    token->cancel();
    context.setCancelToken(token);
    const auto &spec = workload::findBenchmark("li");

    constexpr int callers = 4;
    std::atomic<int> waiting{callers};
    std::atomic<int> cancelled{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < callers; ++i) {
        threads.emplace_back([&] {
            // Release every caller at once.
            --waiting;
            while (waiting.load() > 0) {
            }
            try {
                context.trace(spec, workload::InputKind::Profile);
            } catch (const util::CancelledError &) {
                ++cancelled;
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(cancelled.load(), callers);
    EXPECT_EQ(context.traceGenerations(), 0u);

    context.setCancelToken(nullptr);
    const auto cursor = context.trace(spec, workload::InputKind::Profile);
    EXPECT_EQ(context.traceGenerations(), 1u);
    EXPECT_EQ(drain(*cursor),
              workload::generateTrace(spec, workload::InputKind::Profile)
                  .records());
    context.trace(spec, workload::InputKind::Profile);
    EXPECT_EQ(context.traceGenerations(), 1u);
}

TEST(PredictorResultRate, ZeroBranchesIsZeroNotNan)
{
    // An empty filtered trace (e.g. a benchmark with no indirect
    // branches) must report a 0.0 rate, not NaN, so ASCII tables and
    // CSV never print "nan".
    PredictorResult result;
    result.name = "empty";
    EXPECT_EQ(result.branches, 0u);
    const double rate = result.rate();
    EXPECT_FALSE(std::isnan(rate));
    EXPECT_EQ(rate, 0.0);
}

} // anonymous namespace
