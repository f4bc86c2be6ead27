/**
 * @file
 * Tests for the fetch-bundle front end (DESIGN.md §17).
 *
 * The contract under test has two halves. Accuracy: the FetchEngine
 * must reproduce the retirement-order Simulator's branch and
 * misprediction counts bit for bit, for every conditional predictor
 * and every benchmark in the suite, at any --jobs setting — the engine
 * charges a misprediction's repair in cycles and never lets wrong-path
 * history reach the tables. Timing: bank conflicts split bundles, and
 * bankOf() follows the table index the predictor actually reads.
 *
 * The suite-wide equivalence runs need deterministic workload sizes,
 * so main() pins VLPSIM_SCALE before any trace generation (the same
 * pattern as test_report).
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>
#include <gtest/gtest.h>

#include "core/dynamic_path.h"
#include "core/hfnt.h"
#include "core/path_predictor.h"
#include "predictors/agree.h"
#include "predictors/bimodal.h"
#include "predictors/bimode.h"
#include "predictors/dhlf.h"
#include "predictors/elastic.h"
#include "predictors/gselect.h"
#include "predictors/gshare.h"
#include "predictors/hybrid.h"
#include "predictors/two_level.h"
#include "sim/experiment.h"
#include "sim/frontend.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "trace/trace_source.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace {

using namespace vlp;
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

/** A mixed-kind record stream that keeps path history moving. */
BranchRecord
randomRecord(util::Rng &rng)
{
    const std::uint64_t pc = 0x400000 + (rng.nextBelow(128) << 2);
    const std::uint64_t roll = rng.nextBelow(10);
    if (roll < 6) {
        const bool taken = rng.nextBool(0.6);
        return make(BranchKind::Conditional, pc,
                    taken ? pc + 256 + (rng.nextBelow(8) << 2)
                          : pc + trace::instructionBytes,
                    taken);
    }
    if (roll < 8)
        return make(BranchKind::IndirectJump, pc,
                    0x500000 + (rng.nextBelow(16) << 2));
    if (roll == 8)
        return make(BranchKind::DirectCall, pc, 0x600000 + (pc & 0xff));
    return make(BranchKind::Return, pc, 0x400000 + (rng.nextBelow(64) << 2));
}

// ---------------------------------------------------------------------
// Suite-wide equivalence: Simulator == FetchEngine, bit-identically,
// for every conditional predictor, at --jobs 1 and 4.
// ---------------------------------------------------------------------

/** Both runs' per-predictor results for one workload. */
struct Runs
{
    std::vector<sim::PredictorResult> simulator;
    std::vector<sim::PredictorResult> bundle;
};

/**
 * Per-branch hash numbers without a profiling pass: a cheap
 * pc-derived assignment that still exercises every path length.
 */
core::HashAssignment
syntheticAssignment(trace::TraceSource &trace)
{
    core::HashAssignment assignment(4);
    trace.reset();
    BranchRecord record;
    while (trace.next(record))
        if (record.isConditional())
            assignment.assign(record.pc,
                              1
                                  + static_cast<unsigned>(record.pc >> 2)
                                      % core::maxPathLength);
    trace.reset();
    return assignment;
}

/** The elastic-history twin of syntheticAssignment(). */
pred::PatternLengthAssignment
syntheticPatternLengths(const core::HashAssignment &assignment)
{
    pred::PatternLengthAssignment lengths;
    lengths.defaultLength = 6;
    for (const auto &[pc, number] : assignment.table())
        lengths.lengths[pc] = number % 13;
    return lengths;
}

constexpr unsigned equivalenceIndexBits = 12;

/**
 * Every conditional predictor in src/predictors and src/core. All but
 * bimodal keep history, which a wrong-path advance left unrepaired
 * would corrupt.
 */
struct Lineup
{
    pred::BimodalPredictor bimodal;
    pred::GsharePredictor gshare;
    pred::GselectPredictor gselect;
    pred::TwoLevelPredictor gas;
    pred::TwoLevelPredictor pas;
    pred::AgreePredictor agree;
    pred::BiModePredictor bimode;
    pred::DhlfGsharePredictor dhlf;
    pred::ElasticGsharePredictor elastic;
    pred::HybridPredictor hybrid;
    core::PathConditionalPredictor flp;
    core::PathConditionalPredictor vlp;
    core::DynamicPathConditionalPredictor dynamicVlp;

    explicit Lineup(const core::HashAssignment &assignment)
        : bimodal(equivalenceIndexBits),
          gshare(equivalenceIndexBits),
          gselect(equivalenceIndexBits),
          gas(pred::HistoryScope::Global, equivalenceIndexBits - 2, 2),
          pas(pred::HistoryScope::PerAddress, equivalenceIndexBits - 2,
              2, 8),
          agree(equivalenceIndexBits),
          bimode(equivalenceIndexBits - 1),
          dhlf(equivalenceIndexBits, 2048),
          elastic(equivalenceIndexBits,
                  syntheticPatternLengths(assignment)),
          hybrid(std::make_unique<pred::GsharePredictor>(
                     equivalenceIndexBits - 1),
                 std::make_unique<pred::GselectPredictor>(
                     equivalenceIndexBits - 1),
                 equivalenceIndexBits - 1),
          flp(equivalenceIndexBits, 6),
          vlp(equivalenceIndexBits, assignment),
          dynamicVlp(equivalenceIndexBits)
    {
    }

    /** Registration order; vlp's slot index is vlpSlot. */
    std::vector<pred::ConditionalPredictor *>
    all()
    {
        return {&bimodal, &gshare, &gselect, &gas,    &pas,
                &agree,   &bimode, &dhlf,    &elastic, &hybrid,
                &flp,     &vlp,    &dynamicVlp};
    }

    static constexpr std::size_t vlpSlot = 11;
};

Runs
runWorkload(sim::ExperimentContext &context, const std::string &name)
{
    const auto &spec = workload::findBenchmark(name);
    const auto trace = context.trace(spec, workload::InputKind::Test);
    const core::HashAssignment assignment = syntheticAssignment(*trace);
    const auto actual_number = [assignment](const BranchRecord &r) {
        return assignment.lookup(r.pc);
    };

    Runs out;
    {
        Lineup lineup(assignment);
        sim::Simulator simulator;
        for (pred::ConditionalPredictor *predictor : lineup.all())
            simulator.addConditional(predictor);
        trace->reset();
        simulator.run(*trace);
        out.simulator = simulator.conditionalResults();
    }

    {
        sim::FrontendParameters parameters;
        parameters.bundleWidth = 4;

        Lineup lineup(assignment);
        lineup.flp.setBanks(2);
        lineup.vlp.setBanks(4);
        core::HashFunctionNumberTable hfnt(6);
        hfnt.setBanks(2);

        sim::FetchEngine engine(parameters);
        for (pred::ConditionalPredictor *predictor : lineup.all())
            engine.addConditional(predictor);
        engine.attachHfnt(Lineup::vlpSlot, &hfnt, actual_number);
        trace->reset();
        engine.run(*trace);
        out.bundle = engine.conditionalResults();
    }
    return out;
}

/** Per-predictor equality of branch and misprediction counts. */
void
expectSameCounts(const std::vector<sim::PredictorResult> &expected,
                 const std::vector<sim::PredictorResult> &actual)
{
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t p = 0; p < expected.size(); ++p) {
        SCOPED_TRACE(expected[p].name);
        EXPECT_EQ(actual[p].name, expected[p].name);
        EXPECT_EQ(actual[p].branches, expected[p].branches);
        EXPECT_EQ(actual[p].mispredictions, expected[p].mispredictions);
    }
}

TEST(FrontendEquivalence, AllWorkloadsBothModesAndJobCounts)
{
    std::vector<std::string> names;
    for (const auto &spec : workload::benchmarkSuite())
        names.push_back(spec.name);
    ASSERT_EQ(names.size(), 16u);

    const auto run_all = [&](unsigned jobs) {
        sim::ParallelRunner runner(jobs);
        return runner.map<Runs>(
            names.size(),
            [&](sim::ExperimentContext &context, std::size_t i) {
                return runWorkload(context, names[i]);
            });
    };
    const auto serial = run_all(1);
    const auto parallel = run_all(4);
    ASSERT_EQ(serial.size(), names.size());
    ASSERT_EQ(parallel.size(), names.size());

    for (std::size_t i = 0; i < names.size(); ++i) {
        SCOPED_TRACE(names[i]);
        // Every predictor ran, and the workload produced branches.
        ASSERT_EQ(serial[i].simulator.size(), 13u);
        EXPECT_GT(serial[i].simulator[0].branches, 0u);
        // The fetch-bundle engine matches the Simulator bit for bit.
        expectSameCounts(serial[i].simulator, serial[i].bundle);
        // And sharding across 4 workers changes nothing.
        expectSameCounts(serial[i].simulator, parallel[i].simulator);
        expectSameCounts(serial[i].bundle, parallel[i].bundle);
    }
}

// ---------------------------------------------------------------------
// Banking: bankOf() is the low bits of the table index, and bank
// conflicts split bundles.
// ---------------------------------------------------------------------

TEST(FrontendBanking, PathBankMatchesTableIndexLowBits)
{
    core::HashAssignment assignment(2);
    for (int b = 0; b < 64; ++b)
        assignment.assign(0x400000 + (b << 2),
                          1 + b % core::maxPathLength);
    core::PathConditionalPredictor vlp(10, assignment);

    // Unbanked: the engine must see "no conflicts possible".
    EXPECT_EQ(vlp.bankCount(), 0u);
    EXPECT_EQ(vlp.bankOf(make(BranchKind::Conditional, 0x400000,
                              0x400100)),
              0u);

    vlp.setBanks(4);
    EXPECT_EQ(vlp.bankCount(), 4u);

    util::Rng rng(13);
    for (int i = 0; i < 500; ++i) {
        const BranchRecord record = randomRecord(rng);
        if (record.isConditional()) {
            const unsigned length = std::min(
                assignment.lookup(record.pc), vlp.bank().depth());
            const unsigned expected =
                static_cast<unsigned>(vlp.bank().index(length)) & 3u;
            ASSERT_EQ(vlp.bankOf(record), expected);
            ASSERT_LT(vlp.bankOf(record), 4u);
        }
        vlp.observe(record);
    }
}

TEST(FrontendBanking, HfntBankFollowsEntryIndex)
{
    core::HashFunctionNumberTable hfnt(4);
    EXPECT_EQ(hfnt.banks(), 1u);
    hfnt.setBanks(4);
    EXPECT_EQ(hfnt.banks(), 4u);
    for (std::uint64_t entry = 0; entry < 64; ++entry) {
        const std::uint64_t pc = entry << 2;
        EXPECT_EQ(hfnt.bankOf(pc),
                  static_cast<unsigned>((entry & 15u) & 3u));
    }
}

TEST(FrontendBanking, SinglePortedTableSplitsEveryBundle)
{
    // Two alternating always-taken branches: a banks=1 counter table
    // forces one conditional per bundle; an unbanked table packs them.
    trace::VectorTraceSource trace;
    for (int i = 0; i < 400; ++i) {
        trace.append(make(BranchKind::Conditional, 0x400000, 0x400100));
        trace.append(make(BranchKind::Conditional, 0x400040, 0x400140));
    }

    const auto run = [&](unsigned banks) {
        sim::FrontendParameters parameters;
        parameters.bundleWidth = 4;
        core::PathConditionalPredictor flp(8, 4);
        if (banks != 0)
            flp.setBanks(banks);
        sim::FetchEngine engine(parameters);
        engine.addConditional(&flp);
        trace.reset();
        engine.run(trace);
        return engine.conditionalTiming(0);
    };

    const sim::FrontendResult contended = run(1);
    EXPECT_GT(contended.bankConflicts, 0u);
    // Every bundle carries exactly one branch.
    EXPECT_EQ(contended.bundles, contended.branches);

    const sim::FrontendResult ideal = run(0);
    EXPECT_EQ(ideal.bankConflicts, 0u);
    EXPECT_LT(ideal.bundles, ideal.branches);
    // Banking never changes accuracy.
    EXPECT_EQ(ideal.branches, contended.branches);
    EXPECT_EQ(ideal.mispredictions, contended.mispredictions);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // The suite-wide equivalence test replays all 16 benchmarks twice
    // (Simulator and engine) at two job counts; pin the scale before any workload
    // generation so the run is fast and deterministic.
    setenv("VLPSIM_SCALE", "0.05", 1);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
