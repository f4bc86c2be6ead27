/**
 * @file
 * Tests for the parallel experiment engine: the thread pool itself,
 * and the determinism contract — any --jobs value must reproduce the
 * serial results bit for bit.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <gtest/gtest.h>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/profiler.h"
#include "predictors/budget.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "sim/shared_memo.h"
#include "store/artifact_store.h"
#include "trace/compact_trace.h"
#include "util/cancel.h"
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
    // A memo each, so the --jobs 4 run computes from scratch too.
    SharedMemo serial_memo;
    SharedMemo parallel_memo;
    ParallelRunner serial(1, serial_memo);
    ParallelRunner parallel(4, parallel_memo);
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
    // A memo each, so the --jobs 4 run computes from scratch too.
    SharedMemo serial_memo;
    SharedMemo parallel_memo;
    ParallelRunner serial(1, serial_memo);
    ParallelRunner parallel(4, parallel_memo);
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
    // A memo each, so the --jobs 4 run computes from scratch too.
    SharedMemo serial_memo;
    SharedMemo parallel_memo;
    ParallelRunner serial(1, serial_memo);
    ParallelRunner parallel(4, parallel_memo);
    const auto serial_sweep = serial.averageSweep(4096, false);
    const auto parallel_sweep =
        parallel.averageSweep(4096, false);
    ASSERT_EQ(serial_sweep.size(), parallel_sweep.size());
    for (std::size_t i = 0; i < serial_sweep.size(); ++i)
        EXPECT_EQ(serial_sweep[i], parallel_sweep[i]);
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
std::vector<ComparisonRow>
runFigure9Body(ParallelRunner &runner)
{
    const auto &gcc = workload::findBenchmark("gcc");
    const std::vector<std::size_t> sizes = {1024, 4096, 16384, 65536,
                                            262144};
    return runner.map<ComparisonRow>(
        sizes.size(), [&](ExperimentContext &context, std::size_t i) {
            const unsigned global_length =
                context.globalLength(sizes[i], false);
            context.sweep(gcc, pred::conditionalIndexBits(sizes[i]),
                          false);
            const auto row = compare(context, gcc, sizes[i],
                                     global_length, false, true);
            for (const auto &entry : row.entries)
                runner.addPredictions(entry.branches);
            return row;
        });
}

/** Budgets Table 2 sweeps: five conditional, four indirect. */
constexpr std::size_t table2Budgets = 9;

/** Budgets Figure 9 sweeps, all conditional. */
constexpr std::size_t figure9Budgets = 5;

TEST_F(ParallelHarness, Table2GeneratesEachProfileTraceOnce)
{
    const std::size_t suite = workload::benchmarkSuite().size();
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        SharedMemo memo;
        ParallelRunner runner(jobs, memo);
        runTable2Body(runner);
        // 16 profile traces, each shared by all nine budgets.
        EXPECT_EQ(memo.traceGenerations(), suite);
        EXPECT_EQ(memo.step1Passes(), table2Budgets * suite);
    }
}

TEST_F(ParallelHarness, Figure9GeneratesEachTraceOnce)
{
    const std::size_t suite = workload::benchmarkSuite().size();
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        SharedMemo memo;
        ParallelRunner runner(jobs, memo);
        runFigure9Body(runner);
        // 16 profile traces plus gcc's test trace.
        EXPECT_EQ(memo.traceGenerations(), suite + 1);
        EXPECT_EQ(memo.step1Passes(), figure9Budgets * suite);
    }
}

/** One runner's store traffic and predictions, and the bytes of every
 *  entry it left in its store, by file name. */
struct Traffic
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t predictions = 0;
    std::map<std::string, std::string> entries;
};

/** Run @p body on a fresh runner over @p memo and an empty store in
 *  @p directory. */
template <typename Body>
Traffic
runWithStore(unsigned jobs, SharedMemo &memo, const std::string &directory,
             Body &&body)
{
    namespace fs = std::filesystem;
    fs::remove_all(directory);
    store::StoreOptions options;
    options.directory = directory;
    const auto store = std::make_shared<store::ArtifactStore>(options);
    Traffic traffic;
    {
        ParallelRunner runner(jobs, memo);
        runner.setStore(store);
        body(runner);
        traffic.predictions = runner.predictions();
    }
    const store::StoreCounters counters = store->counters();
    traffic.hits = counters.hits;
    traffic.misses = counters.misses;
    traffic.inserts = counters.inserts;
    for (const auto &file :
         fs::recursive_directory_iterator(directory + "/objects")) {
        if (!file.is_regular_file())
            continue;
        std::ifstream in(file.path(), std::ios::binary);
        traffic.entries[file.path().filename().string()] =
            std::string(std::istreambuf_iterator<char>(in), {});
    }
    fs::remove_all(directory);
    return traffic;
}

void
expectSameTraffic(const Traffic &expected, const Traffic &actual)
{
    EXPECT_EQ(actual.hits, expected.hits);
    EXPECT_EQ(actual.misses, expected.misses);
    EXPECT_EQ(actual.inserts, expected.inserts);
    EXPECT_EQ(actual.predictions, expected.predictions);
    EXPECT_TRUE(actual.entries == expected.entries)
        << "stored entries differ";
}

TEST_F(ParallelHarness, StoreTrafficAndPredictionsIdenticalAcrossJobs)
{
    // Every artifact key is fetched and inserted exactly once per
    // runner, whichever worker gets to it first. A memo per runner, so
    // the --jobs 4 run computes from scratch too.
    const auto run = [](unsigned jobs) {
        SharedMemo memo;
        return runWithStore(
            jobs, memo, testing::TempDir() + "/vlpsim_jobs_store",
            [](ParallelRunner &runner) {
                runFigure9Body(runner);
                const unsigned global_length =
                    runner.globalLength(2048, true);
                runner.compareSuite(testSpecs(), 2048, global_length,
                                    true);
            });
    };
    const Traffic serial = run(1);
    EXPECT_GT(serial.inserts, 0u);
    expectSameTraffic(serial, run(4));
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

/** The shared memo's tests, at the parallel harness's scale. */
class SharedMemoHarness : public ParallelHarness
{
};

TEST_F(SharedMemoHarness, Figure9ReusesWhatTable2Computed)
{
    // Table 2's runner and then Figure 9's, in one process with
    // separate stores: Figure 9's global lengths come from the very
    // sweeps Table 2 ran, so its runner generates only gcc's test
    // trace and runs no step-1 pass. Its store still sees what it
    // would see over a fresh memo, byte for byte.
    const std::size_t suite = workload::benchmarkSuite().size();
    const std::string directory = testing::TempDir() + "/vlpsim_memo_";
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        SharedMemo memo;
        runWithStore(jobs, memo, directory + "table2", runTable2Body);
        EXPECT_EQ(memo.traceGenerations(), suite);
        EXPECT_EQ(memo.step1Passes(), table2Budgets * suite);
        EXPECT_GT(memo.heldBytes(), 0u);

        const Traffic after_table2 = runWithStore(
            jobs, memo, directory + "fig9", runFigure9Body);
        EXPECT_EQ(memo.traceGenerations(), suite + 1);
        EXPECT_EQ(memo.step1Passes(), table2Budgets * suite);

        SharedMemo fresh;
        const Traffic alone = runWithStore(
            jobs, fresh, directory + "alone", runFigure9Body);
        EXPECT_EQ(fresh.traceGenerations(), suite + 1);
        EXPECT_EQ(fresh.step1Passes(), figure9Budgets * suite);
        EXPECT_GT(alone.inserts, 0u);
        expectSameTraffic(alone, after_table2);
    }
}

TEST_F(SharedMemoHarness, OverBudgetEntriesStayPrivate)
{
    // A memo with no room keeps nothing: each runner generates and
    // sweeps for itself, as if there were no memo, and the rows are
    // the same. The resident budget is never touched.
    std::vector<ComparisonRow> shared_rows;
    {
        SharedMemo memo;
        ParallelRunner table2(4, memo);
        runTable2Body(table2);
        ParallelRunner figure9(4, memo);
        shared_rows = runFigure9Body(figure9);
    }

    const std::size_t suite = workload::benchmarkSuite().size();
    const std::uint64_t used = trace::ResidentBudget::process().used();
    SharedMemo memo(0);
    {
        ParallelRunner table2(4, memo);
        runTable2Body(table2);
    }
    EXPECT_EQ(memo.heldBytes(), 0u);
    // Within one runner each entry is still obtained once.
    EXPECT_EQ(memo.traceGenerations(), suite);
    EXPECT_EQ(memo.step1Passes(), table2Budgets * suite);

    ParallelRunner figure9(4, memo);
    expectIdenticalRows(shared_rows, runFigure9Body(figure9));
    EXPECT_EQ(memo.heldBytes(), 0u);
    EXPECT_EQ(memo.traceGenerations(), 2 * suite + 1);
    EXPECT_EQ(memo.step1Passes(), (table2Budgets + figure9Budgets) * suite);
    EXPECT_EQ(trace::ResidentBudget::process().used(), used);
}

/** The conditional step-1 result of @p spec at 10 index bits, run
 *  from scratch. */
std::shared_ptr<const core::Profiler>
step1From(const workload::BenchmarkSpec &spec)
{
    core::ProfileOptions options;
    options.indexBits = 10;
    auto profiler = std::make_shared<core::Profiler>(options, false);
    trace::VectorTraceSource source =
        workload::generateTrace(spec, workload::InputKind::Profile);
    profiler->runStep1(source);
    return profiler;
}

TEST_F(SharedMemoHarness, CancelledRequesterLeavesItsWaiterToRecompute)
{
    // Requester A is cancelled inside the shared computation while B
    // waits on the same entry: A sees its CancelledError, B computes
    // the entry itself and gets the from-scratch result.
    SharedMemo memo;
    const auto &li = workload::findBenchmark("li");
    const auto expected = step1From(li);
    const auto cancel_a = std::make_shared<util::CancelToken>();
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::thread a([&] {
        EXPECT_THROW(memo.step1("li", cancel_a.get(),
                                [&]() -> std::shared_ptr<const core::Profiler> {
                                    entered.set_value();
                                    released.wait();
                                    cancel_a->throwIfCancelled();
                                    return nullptr;
                                }),
                     util::CancelledError);
    });
    entered.get_future().wait();

    std::shared_ptr<const core::Profiler> b_result;
    bool b_cancelled = false;
    std::thread b([&] {
        try {
            b_result = memo.step1("li", nullptr,
                                  [&] { return step1From(li); });
        } catch (const util::CancelledError &) {
            b_cancelled = true;
        }
    });
    // Give B time to block on A's computation.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel_a->cancel();
    release.set_value();
    a.join();
    b.join();

    EXPECT_FALSE(b_cancelled);
    ASSERT_TRUE(b_result);
    EXPECT_EQ(b_result->step1Sweep().mispredictions,
              expected->step1Sweep().mispredictions);
    EXPECT_EQ(memo.step1Passes(), 1u);
    // The entry is now shared: a later requester computes nothing.
    EXPECT_EQ(memo.step1("li", nullptr, [&] { return step1From(li); }),
              b_result);
    EXPECT_EQ(memo.step1Passes(), 1u);
}

TEST_F(SharedMemoHarness, CancellingOneContextLeavesAnotherContextsSweep)
{
    // Context A starts a sweep and is cancelled while it generates the
    // profile trace (m88ksim's takes the longest) inside the shared
    // step-1 computation, with context B waiting on that computation.
    // A unwinds cancelled, or finishes if the timing let it past the
    // check; B always gets the from-scratch sweep.
    const auto &m88ksim = workload::findBenchmark("m88ksim");
    const core::FixedLengthSweep expected = step1From(m88ksim)->step1Sweep();
    for (int round = 0; round < 3; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        SharedMemo memo;
        ExperimentContext a(nullptr, memo);
        ExperimentContext b(nullptr, memo);
        const auto cancel_a = std::make_shared<util::CancelToken>();
        a.setCancelToken(cancel_a);
        std::thread ta([&] {
            try {
                EXPECT_EQ(a.sweep(m88ksim, 10, false).mispredictions,
                          expected.mispredictions);
            } catch (const util::CancelledError &) {
            }
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        core::FixedLengthSweep b_sweep;
        bool b_cancelled = false;
        std::thread tb([&] {
            try {
                b_sweep = b.sweep(m88ksim, 10, false);
            } catch (const util::CancelledError &) {
                b_cancelled = true;
            }
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        cancel_a->cancel();
        ta.join();
        tb.join();
        EXPECT_FALSE(b_cancelled);
        EXPECT_EQ(b_sweep.mispredictions, expected.mispredictions);
        EXPECT_EQ(b_sweep.branches, expected.branches);
    }
}

} // anonymous namespace
