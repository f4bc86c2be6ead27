/**
 * @file
 * Tests for the parallel experiment engine: the thread pool itself,
 * and the determinism contract — any --jobs value must reproduce the
 * serial results bit for bit.
 */

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "predictors/budget.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "store/artifact_store.h"
#include "util/thread_pool.h"
#include "workload/benchmarks.h"

namespace {

using namespace vlp;
using namespace vlp::sim;

TEST(ThreadPool, RunsEverySubmittedTask)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    util::ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&counter] { ++counter; });
        pool.wait();
        EXPECT_EQ(counter.load(), (round + 1) * 10);
    }
}

TEST(ThreadPool, WaitWithNoTasksReturnsImmediately)
{
    util::ThreadPool pool(2);
    pool.wait();
    SUCCEED();
}

TEST(ThreadPool, DefaultThreadCountIsPositive)
{
    EXPECT_GE(util::ThreadPool::defaultThreadCount(), 1u);
}

/** Every (outer, inner) index of a parallelFor nested inside pool
 *  tasks must run exactly once, whether or not a worker is free. */
void
expectNestedParallelForRunsEachIndexOnce(unsigned threads)
{
    util::ThreadPool pool(threads);
    constexpr std::size_t outer = 6;
    constexpr std::size_t inner = 50;
    std::vector<std::atomic<int>> hits(outer * inner);
    // Outer loop as plain tasks, so every caller is a pool worker...
    for (std::size_t i = 0; i < outer; ++i) {
        pool.submit([&, i] {
            pool.parallelFor(inner, [&](std::size_t j) {
                ++hits[i * inner + j];
            });
        });
    }
    pool.wait();
    // ...and as a parallelFor whose items nest again.
    pool.parallelFor(outer, [&](std::size_t i) {
        pool.parallelFor(inner, [&](std::size_t j) {
            ++hits[i * inner + j];
        });
    });
    for (const auto &count : hits)
        EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, NestedParallelForRunsEveryIndexOnceOnOneThread)
{
    expectNestedParallelForRunsEachIndexOnce(1);
}

TEST(ThreadPool, NestedParallelForRunsEveryIndexOnceOnFourThreads)
{
    expectNestedParallelForRunsEachIndexOnce(4);
}

TEST(ThreadPool, NestedParallelForRethrowsFirstException)
{
    for (const unsigned threads : {1u, 4u}) {
        util::ThreadPool pool(threads);
        std::atomic<int> caught{0};
        pool.submit([&] {
            try {
                pool.parallelFor(20, [](std::size_t j) {
                    if (j == 7)
                        throw std::runtime_error("inner");
                });
            } catch (const std::runtime_error &error) {
                if (std::string(error.what()) == "inner")
                    ++caught;
            }
        });
        pool.wait();
        EXPECT_EQ(caught.load(), 1) << threads << " threads";

        // One failing index: its exception, not another, reaches the
        // caller, and the loop still returns (no lost wake-up).
        EXPECT_THROW(pool.parallelFor(8,
                                      [&](std::size_t i) {
                                          pool.parallelFor(
                                              4, [&](std::size_t j) {
                                                  if (i == 3 && j == 2)
                                                      throw std::logic_error(
                                                          "nested");
                                              });
                                      }),
                     std::logic_error);
    }
}

TEST(ThreadPool, ParallelForOverZeroAndOneItems)
{
    util::ThreadPool pool(3);
    int runs = 0;
    pool.parallelFor(0, [&](std::size_t) { ++runs; });
    EXPECT_EQ(runs, 0);
    pool.parallelFor(1, [&](std::size_t index) {
        EXPECT_EQ(index, 0u);
        ++runs;
    });
    EXPECT_EQ(runs, 1);
}

TEST(ParallelRunner, JobsZeroMeansHardwareConcurrency)
{
    ParallelRunner runner(0);
    EXPECT_EQ(runner.jobs(), util::ThreadPool::defaultThreadCount());
}

TEST(ParallelRunner, MapPreservesIndexOrder)
{
    ParallelRunner runner(4);
    const auto squares = runner.map<std::size_t>(
        17, [](ExperimentContext &, std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 17u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelRunner, MapOverZeroItems)
{
    ParallelRunner runner(4);
    const auto empty = runner.map<int>(
        0, [](ExperimentContext &, std::size_t) { return 1; });
    EXPECT_TRUE(empty.empty());
}

TEST(ParallelRunner, ExceptionsPropagateToCaller)
{
    ParallelRunner runner(4);
    EXPECT_THROW(
        runner.map<int>(8,
                        [](ExperimentContext &, std::size_t i) {
                            if (i == 5)
                                throw std::runtime_error("boom");
                            return 0;
                        }),
        std::runtime_error);
}

TEST(ParallelRunner, PredictionCounterAccumulates)
{
    ParallelRunner runner(2);
    EXPECT_EQ(runner.predictions(), 0u);
    runner.map<int>(10, [&](ExperimentContext &, std::size_t) {
        runner.addPredictions(7);
        return 0;
    });
    EXPECT_EQ(runner.predictions(), 70u);
}

/** Shrinks the synthetic workloads so the suite stays fast. */
class ParallelHarness : public ::testing::Test
{
  protected:
    void SetUp() override { setenv("VLPSIM_SCALE", "0.05", 1); }
    void TearDown() override { unsetenv("VLPSIM_SCALE"); }
};

std::vector<workload::BenchmarkSpec>
testSpecs()
{
    std::vector<workload::BenchmarkSpec> specs;
    for (const char *name : {"compress", "li", "go"})
        specs.push_back(workload::findBenchmark(name));
    return specs;
}

void
expectIdenticalRows(const std::vector<ComparisonRow> &serial,
                    const std::vector<ComparisonRow> &parallel)
{
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].benchmark, parallel[i].benchmark);
        ASSERT_EQ(serial[i].entries.size(), parallel[i].entries.size());
        for (std::size_t j = 0; j < serial[i].entries.size(); ++j) {
            const auto &a = serial[i].entries[j];
            const auto &b = parallel[i].entries[j];
            EXPECT_EQ(a.predictor, b.predictor);
            EXPECT_EQ(a.branches, b.branches);
            EXPECT_EQ(a.mispredictions, b.mispredictions);
            // Bit-identical, not just close: the determinism
            // contract promises the exact serial arithmetic.
            EXPECT_EQ(a.rate, b.rate);
        }
    }
}

TEST_F(ParallelHarness, ConditionalRowsBitIdenticalAcrossJobs)
{
    const auto specs = testSpecs();
    ParallelRunner serial(1);
    ParallelRunner parallel(4);
    const unsigned serial_length =
        serial.globalLength(4096, false);
    const unsigned parallel_length =
        parallel.globalLength(4096, false);
    EXPECT_EQ(serial_length, parallel_length);
    expectIdenticalRows(
        serial.compareSuite(specs, 4096, serial_length, false),
        parallel.compareSuite(specs, 4096, parallel_length, false));
}

TEST_F(ParallelHarness, IndirectRowsBitIdenticalAcrossJobs)
{
    const auto specs = testSpecs();
    ParallelRunner serial(1);
    ParallelRunner parallel(4);
    const unsigned serial_length = serial.globalLength(512, true);
    const unsigned parallel_length =
        parallel.globalLength(512, true);
    EXPECT_EQ(serial_length, parallel_length);
    expectIdenticalRows(
        serial.compareSuite(specs, 512, serial_length, true),
        parallel.compareSuite(specs, 512, parallel_length, true));
}

TEST_F(ParallelHarness, AverageSweepBitIdenticalAcrossJobs)
{
    ParallelRunner serial(1);
    ParallelRunner parallel(4);
    const auto serial_sweep = serial.averageSweep(4096, false);
    const auto parallel_sweep =
        parallel.averageSweep(4096, false);
    ASSERT_EQ(serial_sweep.size(), parallel_sweep.size());
    for (std::size_t i = 0; i < serial_sweep.size(); ++i)
        EXPECT_EQ(serial_sweep[i], parallel_sweep[i]);
}

/**
 * The step-1 length-sharding determinism contract: profiling with any
 * --jobs value must reproduce the serial profiler bit for bit — the
 * aggregate sweep, every per-branch record, and the final assignment.
 */
TEST_F(ParallelHarness, Step1ShardingBitIdenticalAcrossJobs)
{
    auto profile_trace = workload::generateTrace(
        workload::findBenchmark("compress"),
        workload::InputKind::Profile, 0.02);

    // 4 workers over the full 32 lengths and 5 over a ragged
    // 10-length range: even and uneven shard splits must both merge
    // identically.
    for (unsigned jobs : {4u, 5u}) {
        core::ProfileOptions options;
        options.indexBits = 12;
        options.jobs = jobs;
        if (jobs == 5) {
            options.minLength = 3;
            options.maxLength = 12;
        }

        core::ProfileOptions reference_options = options;
        reference_options.jobs = 1;
        core::Profiler reference(reference_options, false);
        profile_trace.reset();
        reference.runStep1(profile_trace);

        core::Profiler sharded(options, false);
        profile_trace.reset();
        sharded.runStep1(profile_trace);

        const auto &expect_sweep = reference.step1Sweep();
        const auto &actual_sweep = sharded.step1Sweep();
        EXPECT_EQ(actual_sweep.branches, expect_sweep.branches);
        EXPECT_EQ(actual_sweep.minLength, expect_sweep.minLength);
        ASSERT_EQ(actual_sweep.mispredictions,
                  expect_sweep.mispredictions);

        const auto &expect_profiles = reference.branchProfiles();
        const auto &actual_profiles = sharded.branchProfiles();
        ASSERT_EQ(actual_profiles.size(), expect_profiles.size());
        for (const auto &[pc, expected] : expect_profiles) {
            const auto found = actual_profiles.find(pc);
            ASSERT_NE(found, actual_profiles.end());
            EXPECT_EQ(found->second.executions, expected.executions);
            EXPECT_EQ(found->second.correct, expected.correct);
        }
    }
}

TEST_F(ParallelHarness, Step1ShardingAssignmentIdenticalAcrossJobs)
{
    auto profile_trace = workload::generateTrace(
        workload::findBenchmark("li"), workload::InputKind::Profile,
        0.02);

    core::ProfileOptions options;
    options.indexBits = 12;
    core::Profiler serial(options, false);
    profile_trace.reset();
    const core::HashAssignment serial_assignment =
        serial.profile(profile_trace);

    options.jobs = 4;
    core::Profiler sharded(options, false);
    profile_trace.reset();
    const core::HashAssignment sharded_assignment =
        sharded.profile(profile_trace);

    EXPECT_EQ(sharded_assignment.defaultLength(),
              serial_assignment.defaultLength());
    ASSERT_EQ(sharded_assignment.table(), serial_assignment.table());

    // The indirect profiler shares the sharded sweep machinery.
    core::Profiler indirect_serial(options, true);
    profile_trace.reset();
    indirect_serial.runStep1(profile_trace);
    core::Profiler indirect_sharded(options, true);
    profile_trace.reset();
    indirect_sharded.runStep1(profile_trace);
    EXPECT_EQ(indirect_sharded.step1Sweep().mispredictions,
              indirect_serial.step1Sweep().mispredictions);
    EXPECT_EQ(indirect_sharded.step1Sweep().branches,
              indirect_serial.step1Sweep().branches);
}

/** Table 2's body (bench::buildTable2): the suite averages it prints. */
void
runTable2Body(ParallelRunner &runner)
{
    for (const std::size_t bytes : {1024, 4096, 16384, 65536, 262144})
        runner.globalLength(bytes, false);
    for (const std::size_t bytes : {512, 2048, 8192, 32768})
        runner.globalLength(bytes, true);
}

/** Figure 9's body (bench_fig9): one item per budget, each needing
 *  its own suite average plus a gcc comparison. */
void
runFigure9Body(ParallelRunner &runner)
{
    const auto &gcc = workload::findBenchmark("gcc");
    const std::vector<std::size_t> sizes = {1024, 4096, 16384, 65536,
                                            262144};
    runner.map<int>(sizes.size(), [&](ExperimentContext &context,
                                      std::size_t i) {
        const unsigned global_length =
            context.globalLength(sizes[i], false);
        context.sweep(gcc, pred::conditionalIndexBits(sizes[i]), false);
        const auto row = compare(context, gcc, sizes[i], global_length,
                                 false, true);
        for (const auto &entry : row.entries)
            runner.addPredictions(entry.branches);
        return 0;
    });
}

TEST_F(ParallelHarness, Table2GeneratesEachProfileTraceOnce)
{
    ParallelRunner runner(4);
    runTable2Body(runner);
    // 16 profile traces, each shared by all nine budgets.
    EXPECT_EQ(runner.context().traceGenerations(),
              workload::benchmarkSuite().size());
}

TEST_F(ParallelHarness, Figure9GeneratesEachTraceOnce)
{
    // Five workers keep 20 traces, more than the 17 Figure 9 touches
    // (16 profile traces plus gcc's test trace), so nothing is evicted
    // and nothing is generated twice.
    ParallelRunner runner(5);
    runFigure9Body(runner);
    EXPECT_EQ(runner.context().traceGenerations(),
              workload::benchmarkSuite().size() + 1);
}

TEST_F(ParallelHarness, StoreTrafficAndPredictionsIdenticalAcrossJobs)
{
    // Every artifact key is fetched and inserted exactly once per
    // runner, whichever worker gets to it first.
    const std::string directory = testing::TempDir() + "/vlpsim_jobs_store";
    struct Traffic
    {
        std::uint64_t hits, misses, inserts, predictions;
    };
    const auto run = [&](unsigned jobs) {
        std::filesystem::remove_all(directory);
        store::StoreOptions options;
        options.directory = directory;
        const auto store = std::make_shared<store::ArtifactStore>(options);
        ParallelRunner runner(jobs);
        runner.setStore(store);
        runFigure9Body(runner);
        const unsigned global_length = runner.globalLength(2048, true);
        runner.compareSuite(testSpecs(), 2048, global_length, true);
        const store::StoreCounters counters = store->counters();
        return Traffic{counters.hits, counters.misses, counters.inserts,
                       runner.predictions()};
    };
    const Traffic serial = run(1);
    const Traffic parallel = run(4);
    std::filesystem::remove_all(directory);
    EXPECT_GT(serial.inserts, 0u);
    EXPECT_EQ(parallel.hits, serial.hits);
    EXPECT_EQ(parallel.misses, serial.misses);
    EXPECT_EQ(parallel.inserts, serial.inserts);
    EXPECT_EQ(parallel.predictions, serial.predictions);
}

TEST_F(ParallelHarness, SerialRunnerMatchesPlainContext)
{
    // --jobs 1 must be the exact serial code path.
    ParallelRunner runner(1);
    ExperimentContext context;
    const auto &spec = workload::findBenchmark("compress");
    const auto direct = compare(context, spec, 4096, 4, false);
    const auto via_runner =
        runner.compareSuite({spec}, 4096, 4, false);
    ASSERT_EQ(via_runner.size(), 1u);
    expectIdenticalRows({direct}, via_runner);
}

} // anonymous namespace
