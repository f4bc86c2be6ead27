/**
 * @file
 * Tests for the speculative fetch-bundle front end (DESIGN.md §17).
 *
 * The contract under test has two halves. Accuracy: the FetchEngine
 * must reproduce the retirement-order Simulator's branch and
 * misprediction counts bit for bit, for every benchmark in the suite,
 * at any --jobs setting — speculation may move cycles around, never
 * what the tables learn. Mechanism: the checkpoint/speculate/restore
 * dance every predictor implements must be invisible, i.e. a
 * checkpoint, any amount of wrong-path speculation, and a restore must
 * leave the predictor exactly where a twin that never speculated is.
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
#include <utility>
#include <vector>
#include <gtest/gtest.h>

#include "core/hfnt.h"
#include "core/path_history.h"
#include "core/path_predictor.h"
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
#include "util/chaos.h"
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
// at --jobs 1 and 4.
// ---------------------------------------------------------------------

/** Flattened (branches, mispredictions) pairs across all slots. */
using Signature = std::vector<std::uint64_t>;

Signature
signatureOf(const std::vector<sim::PredictorResult> &conditional,
            const std::vector<sim::PredictorResult> &indirect,
            const sim::PredictorResult &ras)
{
    Signature out;
    for (const auto &result : conditional) {
        out.push_back(result.branches);
        out.push_back(result.mispredictions);
    }
    for (const auto &result : indirect) {
        out.push_back(result.branches);
        out.push_back(result.mispredictions);
    }
    out.push_back(ras.branches);
    out.push_back(ras.mispredictions);
    return out;
}

/** Both accuracy signatures for one workload. */
struct Signatures
{
    Signature simulator;
    Signature bundle;
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

constexpr unsigned equivalenceIndexBits = 12;

/** The predictor line-up every equivalence run registers. */
struct Rig
{
    pred::GsharePredictor gshare;
    core::PathConditionalPredictor flp;
    core::PathConditionalPredictor vlp;
    core::PathIndirectPredictor indirect;

    explicit Rig(const core::HashAssignment &assignment)
        : gshare(equivalenceIndexBits), flp(equivalenceIndexBits, 6),
          vlp(equivalenceIndexBits, assignment),
          indirect(equivalenceIndexBits, 4)
    {
    }
};

Signatures
runWorkload(sim::ExperimentContext &context, const std::string &name)
{
    const auto &spec = workload::findBenchmark(name);
    const auto trace = context.trace(spec, workload::InputKind::Test);
    const core::HashAssignment assignment = syntheticAssignment(*trace);
    const auto actual_number = [assignment](const BranchRecord &r) {
        return assignment.lookup(r.pc);
    };

    Signatures out;
    {
        Rig rig(assignment);
        sim::Simulator simulator;
        simulator.addConditional(&rig.gshare);
        simulator.addConditional(&rig.flp);
        simulator.addConditional(&rig.vlp);
        simulator.addIndirect(&rig.indirect);
        trace->reset();
        simulator.run(*trace);
        out.simulator = signatureOf(simulator.conditionalResults(),
                                    simulator.indirectResults(),
                                    simulator.rasResult());
    }

    {
        sim::FrontendParameters parameters;
        parameters.bundleWidth = 4;
        parameters.chaosIdentity = name;

        Rig rig(assignment);
        rig.flp.setBanks(2);
        rig.vlp.setBanks(4);
        core::HashFunctionNumberTable hfnt(6);
        hfnt.setBanks(2);

        sim::FetchEngine engine(parameters);
        engine.addConditional(&rig.gshare);
        engine.addConditional(&rig.flp);
        engine.addConditional(&rig.vlp);
        engine.addIndirect(&rig.indirect);
        engine.attachHfnt(2, &hfnt, actual_number);
        trace->reset();
        engine.run(*trace);
        out.bundle = signatureOf(engine.conditionalResults(),
                                 engine.indirectResults(),
                                 engine.rasResult());
    }
    return out;
}

TEST(FrontendEquivalence, AllWorkloadsBothModesAndJobCounts)
{
    const auto names = workload::benchmarkNames();
    ASSERT_EQ(names.size(), 16u);

    const auto run_all = [&](unsigned jobs) {
        sim::ParallelRunner runner(jobs);
        return runner.map<Signatures>(
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
        // Non-degenerate: the workload produced branches.
        ASSERT_FALSE(serial[i].simulator.empty());
        EXPECT_GT(serial[i].simulator[0], 0u);
        // The fetch-bundle engine matches the Simulator bit for bit.
        EXPECT_EQ(serial[i].bundle, serial[i].simulator);
        // And sharding across 4 workers changes nothing.
        EXPECT_EQ(parallel[i].simulator, serial[i].simulator);
        EXPECT_EQ(parallel[i].bundle, serial[i].bundle);
    }
}

// ---------------------------------------------------------------------
// Checkpoint/restore round trips.
// ---------------------------------------------------------------------

TEST(FrontendCheckpoint, PathIndexBankRoundTrip)
{
    core::PathHistoryOptions options;
    options.historyStack = true;
    core::PathIndexBank bank(10, options);
    core::PathIndexBank control(10, options);

    util::Rng rng(17);
    for (int i = 0; i < 200; ++i) {
        const BranchRecord record = randomRecord(rng);
        bank.observe(record);
        control.observe(record);
    }

    const auto checkpoint = bank.checkpoint();

    // Wrong path: speculative inserts, calls, and returns the control
    // bank never sees.
    util::Rng wrong(91);
    for (int i = 0; i < 50; ++i)
        bank.observe(randomRecord(wrong));
    bank.restore(checkpoint);

    for (unsigned length = 1; length <= bank.depth(); ++length) {
        EXPECT_EQ(bank.index(length), control.index(length)) << length;
        // And the incremental representation still agrees with the
        // direct recomputation after the rewind.
        EXPECT_EQ(bank.index(length), bank.directIndex(length))
            << length;
    }

    // A checkpoint is a value: restoring it again after more history
    // rewinds to the same point.
    for (int i = 0; i < 30; ++i)
        bank.observe(randomRecord(wrong));
    bank.restore(checkpoint);

    // Both banks now advance in lock step.
    for (int i = 0; i < 100; ++i) {
        const BranchRecord record = randomRecord(rng);
        bank.observe(record);
        control.observe(record);
    }
    for (unsigned length = 1; length <= bank.depth(); ++length)
        EXPECT_EQ(bank.index(length), control.index(length)) << length;
}

TEST(FrontendCheckpoint, HfntNestedCheckpointsUnwindLifo)
{
    core::HashFunctionNumberTable hfnt(4);
    util::Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t pc = rng.nextBelow(16) << 2;
        hfnt.predictNumber(pc);
        hfnt.update(pc, 1 + static_cast<unsigned>(rng.nextBelow(8)));
    }

    const auto base_table = hfnt.rawTable();
    const auto base_lookups = hfnt.lookups();
    const auto base_mismatches = hfnt.mismatches();

    const auto outer = hfnt.checkpoint();
    for (int i = 0; i < 40; ++i) {
        const std::uint64_t pc = rng.nextBelow(16) << 2;
        hfnt.predictNumber(pc);
        hfnt.update(pc, 9);
    }
    const auto mid_table = hfnt.rawTable();
    const auto mid_lookups = hfnt.lookups();
    const auto mid_mismatches = hfnt.mismatches();

    const auto inner = hfnt.checkpoint();
    for (int i = 0; i < 40; ++i) {
        const std::uint64_t pc = rng.nextBelow(16) << 2;
        hfnt.predictNumber(pc);
        hfnt.update(pc, 13);
    }

    hfnt.restore(inner);
    EXPECT_EQ(hfnt.rawTable(), mid_table);
    EXPECT_EQ(hfnt.lookups(), mid_lookups);
    EXPECT_EQ(hfnt.mismatches(), mid_mismatches);

    hfnt.restore(outer);
    EXPECT_EQ(hfnt.rawTable(), base_table);
    EXPECT_EQ(hfnt.lookups(), base_lookups);
    EXPECT_EQ(hfnt.mismatches(), base_mismatches);
}

TEST(FrontendCheckpoint, HfntDiscardKeepsWritesButOuterRestoreUnwinds)
{
    core::HashFunctionNumberTable hfnt(4);
    util::Rng rng(23);
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t pc = rng.nextBelow(16) << 2;
        hfnt.predictNumber(pc);
        hfnt.update(pc, 1 + static_cast<unsigned>(rng.nextBelow(8)));
    }
    const auto base_table = hfnt.rawTable();

    // Discard alone commits the speculative writes.
    {
        const auto checkpoint = hfnt.checkpoint();
        hfnt.predictNumber(0);
        hfnt.update(0, 31);
        const auto written = hfnt.rawTable();
        hfnt.discard(checkpoint);
        EXPECT_EQ(hfnt.rawTable(), written);
    }

    // But discarding an *inner* checkpoint must not strand the undo
    // entries the still-open outer checkpoint needs.
    const auto committed = hfnt.rawTable();
    const auto committed_lookups = hfnt.lookups();
    const auto outer = hfnt.checkpoint();
    hfnt.predictNumber(4);
    hfnt.update(4, 7);
    const auto inner = hfnt.checkpoint();
    hfnt.predictNumber(8);
    hfnt.update(8, 11);
    hfnt.discard(inner);
    hfnt.restore(outer);
    EXPECT_EQ(hfnt.rawTable(), committed);
    EXPECT_EQ(hfnt.lookups(), committed_lookups);

    // And the pre-discard state is still distinct from the original.
    EXPECT_NE(committed, base_table);
}

/**
 * Drive @p subject and @p twin over one deterministic stream; the
 * subject detours down a wrong path between update and observe every
 * few records — exactly the engine's dance — and must end up making
 * the same predictions as the twin that never speculated.
 */
void
expectSpeculationInvisible(pred::ConditionalPredictor &subject,
                           pred::ConditionalPredictor &twin)
{
    util::Rng rng(42);
    std::uint64_t divergent = 0;
    for (int i = 0; i < 4000; ++i) {
        const BranchRecord record = randomRecord(rng);
        if (record.isConditional()) {
            const bool twin_predicted = twin.predict(record);
            twin.update(record);
            const bool predicted = subject.predict(record);
            subject.update(record);
            if (predicted != twin_predicted)
                ++divergent;

            if (i % 3 == 0) {
                const pred::CheckpointPtr checkpoint =
                    subject.checkpoint();
                BranchRecord wrong = record;
                wrong.taken = !record.taken;
                wrong.nextPc = wrong.taken
                    ? record.pc + 512
                    : record.pc + trace::instructionBytes;
                subject.speculate(wrong);
                subject.speculate(make(BranchKind::Conditional,
                                       record.pc + 8, record.pc + 640));
                subject.restore(*checkpoint);
            }
        }
        twin.observe(record);
        subject.observe(record);
    }
    EXPECT_EQ(divergent, 0u);
}

TEST(FrontendCheckpoint, GshareRoundTrip)
{
    pred::GsharePredictor subject(10);
    pred::GsharePredictor twin(10);
    expectSpeculationInvisible(subject, twin);
}

TEST(FrontendCheckpoint, GselectRoundTrip)
{
    pred::GselectPredictor subject(10, 4);
    pred::GselectPredictor twin(10, 4);
    expectSpeculationInvisible(subject, twin);
}

TEST(FrontendCheckpoint, TwoLevelGlobalRoundTrip)
{
    pred::TwoLevelPredictor subject(pred::HistoryScope::Global, 8, 2);
    pred::TwoLevelPredictor twin(pred::HistoryScope::Global, 8, 2);
    expectSpeculationInvisible(subject, twin);
}

TEST(FrontendCheckpoint, TwoLevelPerAddressRoundTrip)
{
    pred::TwoLevelPredictor subject(pred::HistoryScope::PerAddress, 6, 2,
                                    4);
    pred::TwoLevelPredictor twin(pred::HistoryScope::PerAddress, 6, 2,
                                 4);
    expectSpeculationInvisible(subject, twin);
}

TEST(FrontendCheckpoint, ElasticGshareRoundTrip)
{
    pred::PatternLengthAssignment assignment;
    assignment.defaultLength = 5;
    for (int b = 0; b < 32; ++b)
        assignment.lengths[0x400000 + (b << 2)] = 1 + b % 10;
    pred::ElasticGsharePredictor subject(10, assignment);
    pred::ElasticGsharePredictor twin(10, assignment);
    expectSpeculationInvisible(subject, twin);
}

TEST(FrontendCheckpoint, HybridRoundTrip)
{
    const auto build = [] {
        return pred::HybridPredictor(
            std::make_unique<pred::GsharePredictor>(8),
            std::make_unique<pred::GselectPredictor>(8, 4), 8);
    };
    auto subject = build();
    auto twin = build();
    expectSpeculationInvisible(subject, twin);
}

TEST(FrontendCheckpoint, PathConditionalRoundTrip)
{
    core::HashAssignment assignment(3);
    for (int b = 0; b < 128; ++b)
        assignment.assign(0x400000 + (b << 2),
                          1 + b % core::maxPathLength);
    core::PathConditionalPredictor subject(10, assignment);
    core::PathConditionalPredictor twin(10, assignment);
    expectSpeculationInvisible(subject, twin);
}

TEST(FrontendCheckpoint, PathIndirectRoundTrip)
{
    core::HashAssignment assignment(2);
    for (int b = 0; b < 128; ++b)
        assignment.assign(0x400000 + (b << 2), 1 + b % 16);
    core::PathIndirectPredictor subject(10, assignment);
    core::PathIndirectPredictor twin(10, assignment);

    util::Rng rng(77);
    std::uint64_t divergent = 0;
    for (int i = 0; i < 4000; ++i) {
        const BranchRecord record = randomRecord(rng);
        if (record.isIndirect()) {
            const std::uint64_t twin_target = twin.predict(record);
            twin.update(record);
            const std::uint64_t target = subject.predict(record);
            subject.update(record);
            if (target != twin_target)
                ++divergent;

            if (i % 3 == 0) {
                const pred::CheckpointPtr checkpoint =
                    subject.checkpoint();
                BranchRecord wrong = record;
                wrong.nextPc = target ^ 0x40;
                subject.speculate(wrong);
                subject.restore(*checkpoint);
            }
        }
        twin.observe(record);
        subject.observe(record);
    }
    EXPECT_EQ(divergent, 0u);
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

// ---------------------------------------------------------------------
// Chaos: spurious checkpoint-restores must be invisible.
// ---------------------------------------------------------------------

TEST(FrontendChaos, SpuriousRestoresLeaveStatsUnchanged)
{
    struct Disarm
    {
        ~Disarm() { util::chaos::disable(); }
    } disarm;

    trace::VectorTraceSource trace;
    util::Rng rng(2026);
    for (int i = 0; i < 4000; ++i)
        trace.append(randomRecord(rng));

    struct Run
    {
        Signature accuracy;
        double baseCycles = 0.0;
        double mispredictCycles = 0.0;
        double repredictCycles = 0.0;
        std::uint64_t bundles = 0;
        std::uint64_t mispredictions = 0;
        std::uint64_t restores = 0;
        std::uint64_t fired = 0;
    };

    const auto run = [&](bool with_chaos) {
        if (with_chaos) {
            util::chaos::Config config;
            config.enabled = true;
            config.seed = 99;
            config.activateProbability = 1.0;
            config.fireProbability = 0.5;
            config.only = {"frontend.checkpoint.restore"};
            util::chaos::configure(config);
        } else {
            util::chaos::disable();
        }

        sim::FrontendParameters parameters;
        parameters.bundleWidth = 2;
        parameters.chaosIdentity = "frontend-test";
        pred::GsharePredictor gshare(10);
        core::PathConditionalPredictor flp(10, 6);
        sim::FetchEngine engine(parameters);
        engine.addConditional(&gshare);
        engine.addConditional(&flp);
        trace.reset();
        engine.run(trace);

        Run result;
        result.accuracy =
            signatureOf(engine.conditionalResults(),
                        engine.indirectResults(), engine.rasResult());
        for (std::size_t slot = 0; slot < 2; ++slot) {
            const sim::FrontendResult &timing =
                engine.conditionalTiming(slot);
            result.baseCycles += timing.baseCycles;
            result.mispredictCycles += timing.mispredictCycles;
            result.repredictCycles += timing.repredictCycles;
            result.bundles += timing.bundles;
            result.mispredictions += timing.mispredictions;
            result.restores += timing.checkpointRestores;
        }
        if (with_chaos) {
            const auto counters = util::chaos::counters();
            const auto it =
                counters.find("frontend.checkpoint.restore");
            if (it != counters.end())
                result.fired = it->second.fired;
        }
        util::chaos::disable();
        return result;
    };

    const Run clean = run(false);
    const Run chaotic = run(true);

    // The section actually injected repairs...
    EXPECT_GT(chaotic.fired, 0u);
    // ...and nothing observable moved: accuracy and every cycle
    // ledger are identical.
    EXPECT_EQ(chaotic.accuracy, clean.accuracy);
    EXPECT_DOUBLE_EQ(chaotic.baseCycles, clean.baseCycles);
    EXPECT_DOUBLE_EQ(chaotic.mispredictCycles, clean.mispredictCycles);
    EXPECT_DOUBLE_EQ(chaotic.repredictCycles, clean.repredictCycles);
    EXPECT_EQ(chaotic.bundles, clean.bundles);
    // The restore ledger balances exactly: one repair per mispredict
    // plus one per chaos firing.
    EXPECT_EQ(clean.restores, clean.mispredictions);
    EXPECT_EQ(chaotic.restores,
              chaotic.mispredictions + chaotic.fired);
}

// ---------------------------------------------------------------------
// Closed-form fallback edges.
// ---------------------------------------------------------------------

TEST(FrontendClosedForm, ZeroBranchesAndZeroWidthYieldZeroResult)
{
    sim::FrontendParameters parameters;
    const sim::FrontendResult empty =
        sim::closedFormFrontend(parameters, 0, 0, 0);
    EXPECT_DOUBLE_EQ(empty.totalCycles(), 0.0);
    EXPECT_DOUBLE_EQ(empty.ipc(5000.0), 0.0);
    EXPECT_DOUBLE_EQ(empty.branchesPerCycle(), 0.0);

    parameters.bundleWidth = 0;
    const sim::FrontendResult degenerate =
        sim::closedFormFrontend(parameters, 1000, 10, 5);
    EXPECT_DOUBLE_EQ(degenerate.totalCycles(), 0.0);
    EXPECT_DOUBLE_EQ(degenerate.ipc(5000.0), 0.0);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // The suite-wide equivalence test replays all 16 benchmarks three
    // times at two job counts; pin the scale before any workload
    // generation so the run is fast and deterministic.
    setenv("VLPSIM_SCALE", "0.05", 1);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
