/**
 * @file
 * Tests for the 16 benchmark models: suite integrity, generation
 * determinism, static-count targets, and input-set separation.
 */

#include <cmath>
#include <cstdlib>
#include <gtest/gtest.h>
#include <set>
#include <stdexcept>

#include "trace/trace_stats.h"
#include "workload/benchmarks.h"

namespace {

using namespace vlp;
using namespace vlp::workload;

TEST(BenchmarkSuite, SixteenUniqueNames)
{
    const auto &suite = benchmarkSuite();
    ASSERT_EQ(suite.size(), 16u);
    std::set<std::string> names;
    for (const auto &spec : suite)
        names.insert(spec.name);
    EXPECT_EQ(names.size(), 16u);
}

TEST(BenchmarkSuite, EightSpecMembers)
{
    unsigned spec_count = 0;
    for (const auto &spec : benchmarkSuite())
        spec_count += spec.isSpec ? 1 : 0;
    EXPECT_EQ(spec_count, 8u);
    EXPECT_TRUE(benchmarkSuite().front().isSpec);
    EXPECT_EQ(benchmarkSuite().front().name, "go");
}

TEST(BenchmarkSuite, EightIndirectHeavyMembers)
{
    // Table 3's selection: m88ksim, gcc, li, perl, groff, gs, plot,
    // python.
    const auto names = indirectHeavyNames();
    const std::set<std::string> expected = {
        "m88ksim", "gcc", "li", "perl", "groff", "gs", "plot", "python",
    };
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()),
              expected);
}

TEST(BenchmarkSuite, FindByName)
{
    EXPECT_EQ(findBenchmark("gcc").name, "gcc");
    EXPECT_EQ(findBenchmark("tex").name, "tex");
    EXPECT_THROW(findBenchmark("quake"), std::runtime_error);
}

TEST(BenchmarkSuite, PaperCountsRecorded)
{
    const auto &gcc = findBenchmark("gcc");
    EXPECT_EQ(gcc.paperDynamicCond, 27'600'000u);
    EXPECT_EQ(gcc.paperStaticCond, 14419u);
    EXPECT_EQ(gcc.paperStaticInd, 192u);
    const auto &compress = findBenchmark("compress");
    EXPECT_EQ(compress.paperStaticInd, 3u);
}

TEST(BenchmarkSuite, ProfileAndTestInputsDiffer)
{
    for (const auto &spec : benchmarkSuite()) {
        EXPECT_NE(spec.profileInput.seed, spec.testInput.seed)
            << spec.name;
    }
}

TEST(BenchmarkSuite, DynamicBudgetScales)
{
    const auto &spec = findBenchmark("gcc");
    unsetenv("VLPSIM_SCALE");
    const auto base = spec.dynamicBudget();
    EXPECT_EQ(base, static_cast<std::uint64_t>(spec.paperDynamicCond
                                               * baseScale));
    EXPECT_EQ(spec.dynamicBudget(2.0), base * 2);
    setenv("VLPSIM_SCALE", "0.5", 1);
    EXPECT_EQ(spec.dynamicBudget(), base / 2);
    unsetenv("VLPSIM_SCALE");
    // A tiny scale hits the floor; a scale that is not a finite
    // positive number is refused, never cast.
    EXPECT_EQ(spec.dynamicBudget(1e-9), 1000u);
    for (const double bad :
         {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -1.0, 1e300})
        EXPECT_THROW(spec.dynamicBudget(bad), std::runtime_error) << bad;
}

class BenchmarkModel : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BenchmarkModel, ProgramBuildsWithTargetStatics)
{
    const auto &spec = findBenchmark(GetParam());
    Program program = buildProgram(spec);
    // The generator overshoots the conditional target by at most one
    // work function plus the phase overhead.
    EXPECT_GE(program.staticConditionals(),
              spec.structure.targetStaticCond * 9 / 10);
    EXPECT_LE(program.staticConditionals(),
              spec.structure.targetStaticCond + 300);
    // The indirect budget is never exceeded.
    EXPECT_LE(program.staticIndirects(),
              spec.structure.targetStaticInd);
    EXPECT_GE(program.staticIndirects(), 1u);
}

TEST_P(BenchmarkModel, GenerationIsDeterministic)
{
    const auto &spec = findBenchmark(GetParam());
    setenv("VLPSIM_SCALE", "0.01", 1);
    auto first = generateTrace(spec, InputKind::Profile);
    auto second = generateTrace(spec, InputKind::Profile);
    unsetenv("VLPSIM_SCALE");
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(first.records(), second.records());
}

TEST_P(BenchmarkModel, ProfileAndTestTracesDiffer)
{
    const auto &spec = findBenchmark(GetParam());
    setenv("VLPSIM_SCALE", "0.01", 1);
    auto profile = generateTrace(spec, InputKind::Profile);
    auto test = generateTrace(spec, InputKind::Test);
    unsetenv("VLPSIM_SCALE");
    EXPECT_NE(profile.records(), test.records());
}

TEST_P(BenchmarkModel, TraceMeetsBudgetAndShape)
{
    const auto &spec = findBenchmark(GetParam());
    setenv("VLPSIM_SCALE", "0.05", 1);
    auto trace = generateTrace(spec, InputKind::Test);
    unsetenv("VLPSIM_SCALE");

    trace::TraceStats stats;
    stats.observeAll(trace);
    // Allow a few branches of slack: the budget is recomputed here
    // with a different floating-point evaluation order.
    EXPECT_GE(stats.dynamicConditional() + 8, spec.dynamicBudget(0.05));
    // Branch mix sanity: calls and returns balance except for frames
    // still live when the budget cut the run off.
    const std::uint64_t calls =
        stats.dynamicCount(trace::BranchKind::DirectCall)
        + stats.dynamicCount(trace::BranchKind::IndirectCall);
    const std::uint64_t returns =
        stats.dynamicCount(trace::BranchKind::Return);
    EXPECT_GT(calls, 0u);
    EXPECT_LE(returns, calls);
    EXPECT_LE(calls - returns, 64u);
    // Taken rate in a plausible band (loops dominate).
    EXPECT_GT(stats.takenRate(), 40.0);
    EXPECT_LT(stats.takenRate(), 99.0);
}

INSTANTIATE_TEST_SUITE_P(
    All, BenchmarkModel,
    ::testing::Values("go", "m88ksim", "gcc", "compress", "li", "ijpeg",
                      "perl", "vortex", "chess", "groff", "gs", "pgp",
                      "plot", "python", "ss", "tex"));

} // anonymous namespace
