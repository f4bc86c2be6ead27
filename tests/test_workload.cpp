/**
 * @file
 * Unit tests for the synthetic workload substrate: behaviour models,
 * program construction/validation, and the execution engine.
 */

#include <gtest/gtest.h>

#include "trace/trace_stats.h"
#include "workload/behavior.h"
#include "workload/engine.h"
#include "workload/program.h"

namespace {

using namespace vlp;
using namespace vlp::workload;

/** Context with writable histories for driving behaviours directly. */
struct TestContext
{
    std::uint64_t path[pathHistoryDepth] = {};
    util::Rng rng{12345};
    BehaviorContext context;

    TestContext()
    {
        context.pathHistory = path;
        context.rng = &rng;
    }
};

TEST(LoopBehavior, TakenTripMinusOneTimes)
{
    TestContext ctx;
    LoopBehavior loop(5, 5, false); // fixed trip of 5
    for (int traversal = 0; traversal < 4; ++traversal) {
        for (int i = 0; i < 4; ++i)
            EXPECT_TRUE(loop.evaluate(ctx.context)) << traversal;
        EXPECT_FALSE(loop.evaluate(ctx.context)) << traversal;
    }
}

TEST(LoopBehavior, TripScaleExtendsLoops)
{
    TestContext ctx;
    ctx.context.tripScale = 2.0;
    LoopBehavior loop(4, 4, false);
    int taken = 0;
    while (loop.evaluate(ctx.context))
        ++taken;
    EXPECT_EQ(taken, 7); // trip 8 = 7 taken + 1 exit
}

TEST(LoopBehavior, ResetClearsProgress)
{
    TestContext ctx;
    LoopBehavior loop(3, 3, false);
    EXPECT_TRUE(loop.evaluate(ctx.context));
    loop.reset();
    // Fresh trip: taken twice then exit.
    EXPECT_TRUE(loop.evaluate(ctx.context));
    EXPECT_TRUE(loop.evaluate(ctx.context));
    EXPECT_FALSE(loop.evaluate(ctx.context));
}

TEST(PathCorrelatedBehavior, DeterministicGivenPath)
{
    TestContext ctx;
    PathCorrelatedBehavior behavior(3, false, 0.0, 777);
    ctx.path[2] = 0x1234;
    const bool first = behavior.evaluate(ctx.context);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(behavior.evaluate(ctx.context), first);
}

TEST(PathCorrelatedBehavior, DependsOnlyOnDepthToken)
{
    TestContext ctx;
    PathCorrelatedBehavior behavior(3, false, 0.0, 777);
    ctx.path[2] = 0x1234;
    const bool baseline = behavior.evaluate(ctx.context);
    // Changing other tokens does not affect the outcome.
    ctx.path[0] = 0xdead;
    ctx.path[1] = 0xbeef;
    ctx.path[5] = 0xffff;
    EXPECT_EQ(behavior.evaluate(ctx.context), baseline);
    // Changing the determining token can change it; over many token
    // values both outcomes must occur.
    bool saw_true = false, saw_false = false;
    for (std::uint64_t token = 0; token < 64; ++token) {
        ctx.path[2] = token * 4096;
        (behavior.evaluate(ctx.context) ? saw_true : saw_false) = true;
    }
    EXPECT_TRUE(saw_true);
    EXPECT_TRUE(saw_false);
}

TEST(PathCorrelatedBehavior, DualUsesMidpointToken)
{
    TestContext ctx;
    PathCorrelatedBehavior behavior(8, true, 0.0, 99);
    ctx.path[7] = 0x42;
    ctx.path[3] = 0x1;
    const bool baseline = behavior.evaluate(ctx.context);
    // Flipping the midpoint token (index (8-1)/2 == 3) may flip the
    // outcome; scan until it does.
    bool flipped = false;
    for (std::uint64_t token = 0; token < 256 && !flipped; ++token) {
        ctx.path[3] = token * 64;
        flipped = behavior.evaluate(ctx.context) != baseline;
    }
    EXPECT_TRUE(flipped);
}

TEST(PathCorrelatedBehavior, NoiseFlips)
{
    TestContext ctx;
    PathCorrelatedBehavior behavior(1, false, 0.5, 5);
    int changes = 0;
    const bool baseline =
        PathCorrelatedBehavior(1, false, 0.0, 5).evaluate(ctx.context);
    for (int i = 0; i < 2000; ++i)
        changes += behavior.evaluate(ctx.context) != baseline ? 1 : 0;
    EXPECT_NEAR(changes / 2000.0, 0.5, 0.06);
}

TEST(PatternCorrelatedBehavior, DeterministicGivenPattern)
{
    TestContext ctx;
    PatternCorrelatedBehavior behavior(4, 0.0, 31);
    ctx.context.outcomeHistory = 0b1010;
    const bool first = behavior.evaluate(ctx.context);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(behavior.evaluate(ctx.context), first);
    // Bits beyond the depth are ignored.
    ctx.context.outcomeHistory = 0b111010;
    EXPECT_EQ(behavior.evaluate(ctx.context), first);
    // Both outcomes occur across patterns.
    bool saw_true = false, saw_false = false;
    for (std::uint64_t pattern = 0; pattern < 16; ++pattern) {
        ctx.context.outcomeHistory = pattern;
        (behavior.evaluate(ctx.context) ? saw_true : saw_false) = true;
    }
    EXPECT_TRUE(saw_true);
    EXPECT_TRUE(saw_false);
}

TEST(BiasedBehavior, IidFrequencyMatchesBias)
{
    TestContext ctx;
    BiasedBehavior behavior(0.2);
    int taken = 0;
    for (int i = 0; i < 50000; ++i)
        taken += behavior.evaluate(ctx.context) ? 1 : 0;
    EXPECT_NEAR(taken / 50000.0, 0.2, 0.02);
}

TEST(BiasedBehavior, StickyHoldsOutcome)
{
    TestContext ctx;
    BiasedBehavior behavior(0.5, 128);
    // Count outcome flips over 10000 executions: with window ~128 the
    // flip count must be near 10000/128 * P(flip) << iid's ~5000.
    bool last = behavior.evaluate(ctx.context);
    int flips = 0;
    for (int i = 0; i < 10000; ++i) {
        const bool now = behavior.evaluate(ctx.context);
        flips += now != last ? 1 : 0;
        last = now;
    }
    EXPECT_LT(flips, 200);
    EXPECT_GT(flips, 5);
}

TEST(MarkovBehavior, DeterministicTransitions)
{
    TestContext a, b;
    MarkovBehavior first(2, 0.0, 42);
    MarkovBehavior second(2, 0.0, 42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(first.evaluate(a.context, 16),
                  second.evaluate(b.context, 16));
    }
}

TEST(MarkovBehavior, ResetRestartsSequence)
{
    TestContext ctx;
    MarkovBehavior behavior(3, 0.0, 7);
    std::vector<std::size_t> first;
    for (int i = 0; i < 10; ++i)
        first.push_back(behavior.evaluate(ctx.context, 8));
    behavior.reset();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(behavior.evaluate(ctx.context, 8), first[i]);
}

TEST(PathDispatchBehavior, TargetInRangeAndDeterministic)
{
    TestContext ctx;
    PathDispatchBehavior behavior(2, 0.0, 11);
    ctx.path[1] = 0x4242;
    const std::size_t first = behavior.evaluate(ctx.context, 7);
    EXPECT_LT(first, 7u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(behavior.evaluate(ctx.context, 7), first);
}

TEST(RandomDispatchBehavior, SkewedButCoversRange)
{
    TestContext ctx;
    RandomDispatchBehavior behavior(1.2);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[behavior.evaluate(ctx.context, 8)];
    EXPECT_GT(counts[0], counts[7]);
    for (int count : counts)
        EXPECT_GT(count, 0);
}

TEST(ConcentratedTarget, InRangeAndSkewed)
{
    std::vector<int> counts(16, 0);
    util::Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const std::size_t target = concentratedTarget(rng.next(), 16);
        ASSERT_LT(target, 16u);
        ++counts[target];
    }
    // The cubed-uniform map concentrates strongly on index 0.
    EXPECT_GT(counts[0], counts[15] * 4);
}

// --- Program construction -------------------------------------------

TEST(ProgramBuilder, MinimalValidProgram)
{
    ProgramBuilder builder;
    const FuncId main_func = builder.beginFunction();
    const BlockId entry = builder.addBlock();
    builder.setJump(entry, entry); // main loops forever
    builder.endFunction();
    Program program = builder.finalize(main_func);

    EXPECT_EQ(program.blocks().size(), 1u);
    EXPECT_EQ(program.mainFunction(), main_func);
    EXPECT_EQ(program.blockAddr(0), textBase);
}

TEST(ProgramBuilder, AddressesAreContiguousWords)
{
    ProgramBuilder builder;
    const FuncId func = builder.beginFunction();
    const BlockId a = builder.addBlock();
    const BlockId b = builder.addBlock();
    builder.setJump(b, a);
    builder.endFunction();
    Program program = builder.finalize(func);
    EXPECT_EQ(program.blockAddr(b), program.blockAddr(a) + blockBytes);
}

TEST(ProgramBuilder, StaticCounts)
{
    ProgramBuilder builder;
    const FuncId func = builder.beginFunction();
    const BlockId cond = builder.addBlock();
    const BlockId mid = builder.addBlock();
    const BlockId sw = builder.addBlock();
    const BlockId handler = builder.addBlock();
    const BlockId ret = builder.addBlock();
    builder.setCond(cond, ret, std::make_unique<BiasedBehavior>(0.5));
    (void)mid;
    builder.setIndirectJump(sw, {handler, ret},
                            std::make_unique<RandomDispatchBehavior>(1.0));
    builder.setReturn(ret);
    builder.endFunction();
    EXPECT_EQ(builder.staticConditionals(), 1u);
    EXPECT_EQ(builder.staticIndirects(), 1u);

    Program program = builder.finalize(func);
    EXPECT_EQ(program.staticConditionals(), 1u);
    EXPECT_EQ(program.staticIndirects(), 1u);
}

TEST(ProgramBuilder, RejectsCondAsLastBlock)
{
    ProgramBuilder builder;
    const FuncId func = builder.beginFunction();
    const BlockId cond = builder.addBlock();
    builder.setCond(cond, cond, std::make_unique<BiasedBehavior>(0.5));
    builder.endFunction();
    EXPECT_THROW(builder.finalize(func), std::runtime_error);
}

TEST(ProgramBuilder, RejectsFallThroughOffEnd)
{
    ProgramBuilder builder;
    const FuncId func = builder.beginFunction();
    builder.addBlock(); // fall-through with no successor
    builder.endFunction();
    EXPECT_THROW(builder.finalize(func), std::runtime_error);
}

TEST(ProgramBuilder, RejectsCrossFunctionJump)
{
    ProgramBuilder builder;
    const FuncId first = builder.beginFunction();
    const BlockId ret = builder.addBlock();
    builder.setReturn(ret);
    builder.endFunction();
    (void)first;

    const FuncId second = builder.beginFunction();
    const BlockId jump = builder.addBlock();
    builder.setJump(jump, ret); // leaves its function
    builder.endFunction();
    EXPECT_THROW(builder.finalize(second), std::runtime_error);
}

TEST(ProgramBuilder, RejectsDanglingCallee)
{
    ProgramBuilder builder;
    const FuncId func = builder.beginFunction();
    const BlockId call = builder.addBlock();
    const BlockId ret = builder.addBlock();
    builder.setCall(call, 57); // no such function
    builder.setReturn(ret);
    builder.endFunction();
    EXPECT_THROW(builder.finalize(func), std::runtime_error);
}

TEST(ProgramBuilder, RejectsMissingBehavior)
{
    ProgramBuilder builder;
    builder.beginFunction();
    const BlockId cond = builder.addBlock();
    EXPECT_THROW(builder.setCond(cond, cond, nullptr),
                 std::runtime_error);
    EXPECT_THROW(builder.setIndirectJump(cond, {cond}, nullptr),
                 std::runtime_error);
    EXPECT_THROW(builder.setIndirectJump(
                     cond, {},
                     std::make_unique<RandomDispatchBehavior>(1.0)),
                 std::runtime_error);
}

TEST(ProgramBuilder, RejectsEmptyFunction)
{
    ProgramBuilder builder;
    builder.beginFunction();
    EXPECT_THROW(builder.endFunction(), std::runtime_error);
}

TEST(ProgramBuilder, RejectsNestedFunctions)
{
    ProgramBuilder builder;
    builder.beginFunction();
    EXPECT_THROW(builder.beginFunction(), std::runtime_error);
}

TEST(ProgramBuilder, RejectsUnknownMain)
{
    ProgramBuilder builder;
    const FuncId func = builder.beginFunction();
    const BlockId entry = builder.addBlock();
    builder.setJump(entry, entry);
    builder.endFunction();
    (void)func;
    EXPECT_THROW(builder.finalize(12), std::runtime_error);
}

// --- Execution engine -----------------------------------------------

/** Tiny program: main calls a leaf containing a fixed-trip loop. */
Program
loopCallProgram(unsigned trip)
{
    ProgramBuilder builder;
    const FuncId leaf = builder.beginFunction();
    const BlockId body = builder.addBlock();
    const BlockId backedge = builder.addBlock();
    const BlockId leaf_ret = builder.addBlock();
    builder.setCond(backedge, body,
                    std::make_unique<LoopBehavior>(trip, trip, false));
    builder.setReturn(leaf_ret);
    builder.endFunction();

    const FuncId main_func = builder.beginFunction();
    const BlockId call = builder.addBlock();
    const BlockId loop = builder.addBlock();
    builder.setCall(call, leaf);
    builder.setJump(loop, call);
    builder.endFunction();
    return builder.finalize(main_func);
}

TEST(ExecutionEngine, LoopIteratesTripTimes)
{
    Program program = loopCallProgram(6);
    ExecutionEngine engine(program, InputSet{1, 1.0, 1.0});
    RunLimits limits;
    limits.conditionalBudget = 60; // 10 traversals of a trip-6 loop

    trace::TraceStats stats;
    engine.run(limits, [&stats](const trace::BranchRecord &record) {
        stats.observe(record);
    });

    EXPECT_EQ(stats.dynamicConditional(), 60u);
    // Each traversal: 5 taken back edges + 1 not-taken exit.
    EXPECT_NEAR(stats.takenRate(), 100.0 * 5 / 6, 1e-9);
    // One call per traversal; the run stops right after the 60th
    // conditional, before the final traversal's return is emitted.
    EXPECT_EQ(stats.dynamicCount(trace::BranchKind::DirectCall), 10u);
    EXPECT_EQ(stats.dynamicCount(trace::BranchKind::Return), 9u);
}

TEST(ExecutionEngine, ReturnGoesToCallSiteSuccessor)
{
    Program program = loopCallProgram(2);
    ExecutionEngine engine(program, InputSet{1, 1.0, 1.0});
    RunLimits limits;
    limits.conditionalBudget = 4;

    std::uint64_t call_pc = 0;
    std::uint64_t return_next = 0;
    engine.run(limits, [&](const trace::BranchRecord &record) {
        if (record.kind == trace::BranchKind::DirectCall && !call_pc)
            call_pc = record.pc;
        if (record.isReturn() && !return_next)
            return_next = record.nextPc;
    });
    EXPECT_EQ(return_next, call_pc + blockBytes);
}

TEST(ExecutionEngine, DeterministicPerSeed)
{
    Program a = loopCallProgram(5);
    Program b = loopCallProgram(5);
    RunLimits limits;
    limits.conditionalBudget = 500;
    auto ta = ExecutionEngine(a, InputSet{9, 1.0, 1.0})
                  .runToTrace(limits);
    auto tb = ExecutionEngine(b, InputSet{9, 1.0, 1.0})
                  .runToTrace(limits);
    EXPECT_EQ(ta.records(), tb.records());
}

TEST(ExecutionEngine, RecursionOverflowsCallStack)
{
    // A function calling itself unconditionally must hit the guard.
    ProgramBuilder builder;
    const FuncId func = builder.beginFunction();
    const BlockId call = builder.addBlock();
    const BlockId ret = builder.addBlock();
    builder.setCall(call, func); // self-recursion
    builder.setReturn(ret);
    builder.endFunction();
    Program program = builder.finalize(func);

    ExecutionEngine engine(program, InputSet{1, 1.0, 1.0});
    RunLimits limits;
    limits.recordBudget = 100000;
    EXPECT_THROW(engine.run(limits, [](const trace::BranchRecord &) {}),
                 std::runtime_error);
}

TEST(ExecutionEngine, RecordBudgetStopsRun)
{
    Program program = loopCallProgram(5);
    ExecutionEngine engine(program, InputSet{1, 1.0, 1.0});
    RunLimits limits;
    limits.conditionalBudget = 1'000'000'000;
    limits.recordBudget = 1000;
    const std::uint64_t emitted =
        engine.run(limits, [](const trace::BranchRecord &) {});
    EXPECT_EQ(emitted, 1000u);
}

TEST(ExecutionEngine, IndirectJumpStaysInTargetSet)
{
    ProgramBuilder builder;
    const FuncId main_func = builder.beginFunction();
    const BlockId dispatch = builder.addBlock();
    const BlockId h1 = builder.addBlock();
    const BlockId h2 = builder.addBlock();
    const BlockId h3 = builder.addBlock();
    builder.setIndirectJump(dispatch, {h1, h2, h3},
                            std::make_unique<RandomDispatchBehavior>(0.5));
    builder.setJump(h1, dispatch);
    builder.setJump(h2, dispatch);
    builder.setJump(h3, dispatch);
    builder.endFunction();
    Program program = builder.finalize(main_func);

    const std::uint64_t a1 = program.blockAddr(h1);
    const std::uint64_t a2 = program.blockAddr(h2);
    const std::uint64_t a3 = program.blockAddr(h3);

    ExecutionEngine engine(program, InputSet{5, 1.0, 1.0});
    RunLimits limits;
    limits.recordBudget = 2000;
    engine.run(limits, [&](const trace::BranchRecord &record) {
        if (record.kind == trace::BranchKind::IndirectJump) {
            EXPECT_TRUE(record.nextPc == a1 || record.nextPc == a2
                        || record.nextPc == a3);
        }
    });
}

} // anonymous namespace
