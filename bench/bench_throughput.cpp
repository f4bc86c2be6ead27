/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * predictor lookup/update, the incremental path-index bank, trace
 * generation, and one full profiling step. These quantify simulation
 * throughput, not prediction accuracy.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "core/path_history.h"
#include "core/path_predictor.h"
#include "core/profiler.h"
#include "predictors/gshare.h"
#include "predictors/target_cache.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "store/artifact_store.h"
#include "util/bits.h"
#include "util/rng.h"
#include "util/saturating_counter.h"
#include "workload/benchmarks.h"

namespace {

using namespace vlp;

/** Artifact store shared by BM_ParallelSimulate runners (may be null). */
std::shared_ptr<store::ArtifactStore> &
throughputStore()
{
    static std::shared_ptr<store::ArtifactStore> store;
    return store;
}

trace::VectorTraceSource &
sharedTrace()
{
    static trace::VectorTraceSource trace = workload::generateTrace(
        workload::findBenchmark("li"), workload::InputKind::Test, 0.1);
    return trace;
}

void
BM_GsharePredictUpdate(benchmark::State &state)
{
    pred::GsharePredictor gshare(14);
    auto &trace = sharedTrace();
    const auto &records = trace.records();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &record = records[i];
        if (record.isConditional()) {
            benchmark::DoNotOptimize(gshare.predict(record));
            gshare.update(record);
        }
        gshare.observe(record);
        i = (i + 1) % records.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GsharePredictUpdate);

void
BM_VlpPredictUpdate(benchmark::State &state)
{
    core::HashAssignment assignment(8);
    core::PathConditionalPredictor vlp(14, assignment);
    auto &trace = sharedTrace();
    const auto &records = trace.records();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &record = records[i];
        if (record.isConditional()) {
            benchmark::DoNotOptimize(vlp.predict(record));
            vlp.update(record);
        }
        vlp.observe(record);
        i = (i + 1) % records.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VlpPredictUpdate);

void
BM_TargetCachePredictUpdate(benchmark::State &state)
{
    pred::PatternTargetCache cache(9);
    auto &trace = sharedTrace();
    const auto &records = trace.records();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &record = records[i];
        if (record.isIndirect()) {
            benchmark::DoNotOptimize(cache.predict(record));
            cache.update(record);
        }
        cache.observe(record);
        i = (i + 1) % records.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TargetCachePredictUpdate);

void
BM_PathIndexBankInsert(benchmark::State &state)
{
    core::PathHistoryOptions options;
    options.depth = static_cast<unsigned>(state.range(0));
    core::PathIndexBank bank(14, options);
    util::Rng rng(7);
    for (auto _ : state)
        bank.insert(rng.next() & 0xffffff);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathIndexBankInsert)->Arg(8)->Arg(16)->Arg(32);

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto &spec = workload::findBenchmark("compress");
    for (auto _ : state) {
        auto trace =
            workload::generateTrace(spec, workload::InputKind::Test,
                                    0.02);
        benchmark::DoNotOptimize(trace.size());
        state.SetItemsProcessed(state.items_processed()
                                + static_cast<std::int64_t>(
                                    trace.size()));
    }
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

/** Profile trace shared by the step-1 benchmarks. */
trace::VectorTraceSource &
step1Trace()
{
    static trace::VectorTraceSource trace = workload::generateTrace(
        workload::findBenchmark("compress"),
        workload::InputKind::Profile, 0.05);
    return trace;
}

/**
 * The step-1 conditional profiling kernel as shipped: packed 2-bit
 * counter tables (128 KiB for the full 32-length bank at 14 index
 * bits), one pass over the trace. Compare against
 * BM_Step1ConditionalUnpacked for the kernel speedup.
 */
void
BM_Step1Conditional(benchmark::State &state)
{
    auto &trace = step1Trace();
    core::ProfileOptions options;
    options.indexBits = 14;
    for (auto _ : state) {
        core::Profiler profiler(options, false);
        trace.reset();
        benchmark::DoNotOptimize(profiler.runStep1(trace).branches);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Step1Conditional)->Unit(benchmark::kMillisecond);

/**
 * The pre-packing index bank: one partial-sum register per length
 * updated with an O(depth) rotate loop, plus an O(depth) THB shift —
 * the maintenance cost every record used to pay before the running-sum
 * reformulation in PathIndexBank. Depth and index width are runtime
 * state, as they were in the original (separately compiled) bank, so
 * the replica keeps its codegen rather than constant-folding into
 * something the shipped code never was.
 */
struct UnpackedBank
{
    unsigned depth;
    unsigned indexBits;
    std::vector<std::uint64_t> indices;
    std::vector<std::uint64_t> thb;

    UnpackedBank(unsigned depth_, unsigned index_bits)
        : depth(depth_), indexBits(index_bits), indices(depth_, 0),
          thb(depth_, 0)
    {
    }

    void
    observe(const trace::BranchRecord &record)
    {
        if (!record.entersPathHistory(false))
            return;
        const std::uint64_t compressed =
            util::truncate(record.nextPc >> 2, indexBits);
        for (unsigned x = depth; x-- > 1;)
            indices[x] =
                util::rotl(indices[x - 1], 1, indexBits) ^ compressed;
        indices[0] = compressed;
        for (unsigned i = depth; i-- > 1;)
            thb[i] = thb[i - 1];
        thb[0] = compressed;
    }
};

/**
 * Faithful replica of the earlier serial step-1 kernel: one
 * std::vector<util::SaturatingCounter> per length (~6 MB of table
 * state at 14 index bits — far past L2), the O(depth)-per-record
 * bank maintenance above, and branchy per-length tallies. This is
 * the baseline the packed kernel's speedup is measured against.
 */
void
BM_Step1ConditionalUnpacked(benchmark::State &state)
{
    auto &trace = step1Trace();
    const unsigned index_bits = 14;
    const unsigned num_lengths = core::maxPathLength;
    const std::size_t table_size = std::size_t{1} << index_bits;
    for (auto _ : state) {
        UnpackedBank bank(num_lengths, index_bits);
        std::vector<std::vector<util::SaturatingCounter>> tables(
            num_lengths,
            std::vector<util::SaturatingCounter>(
                table_size, util::SaturatingCounter(2)));
        std::vector<std::uint64_t> mispredictions(num_lengths, 0);
        std::unordered_map<std::uint64_t, core::BranchProfile>
            profiles;
        for (const auto &record : trace.records()) {
            if (record.isConditional()) {
                core::BranchProfile &profile = profiles[record.pc];
                ++profile.executions;
                for (unsigned length = 1; length <= num_lengths;
                     ++length) {
                    util::SaturatingCounter &counter =
                        tables[length - 1][static_cast<std::size_t>(
                            bank.indices[length - 1])];
                    if (counter.predictTaken() == record.taken)
                        ++profile.correct[length - 1];
                    else
                        ++mispredictions[length - 1];
                    counter.update(record.taken);
                }
            }
            bank.observe(record);
        }
        benchmark::DoNotOptimize(mispredictions.data());
        benchmark::DoNotOptimize(profiles.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Step1ConditionalUnpacked)->Unit(benchmark::kMillisecond);

/**
 * The parallel experiment engine end to end: simulate gshare over four
 * benchmarks' test traces, sharded benchmark-per-worker. Items/s is
 * branches/s, so comparing the jobs=1 and jobs=N lines tracks the
 * engine's speedup. Traces live in each worker's ExperimentContext
 * cache, so generation cost is paid once per runner, not per
 * iteration.
 */
void
BM_ParallelSimulate(benchmark::State &state)
{
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    static std::map<unsigned, std::unique_ptr<sim::ParallelRunner>>
        runners;
    auto &runner = runners[jobs];
    if (!runner) {
        runner = std::make_unique<sim::ParallelRunner>(jobs);
        runner->setStore(throughputStore());
    }

    const char *const names[] = {"compress", "li", "go", "ijpeg"};
    std::uint64_t branches = 0;
    for (auto _ : state) {
        const auto counts = runner->map<std::uint64_t>(
            std::size(names),
            [&](sim::ExperimentContext &context, std::size_t i) {
                const auto &spec = workload::findBenchmark(names[i]);
                const auto trace =
                    context.trace(spec, workload::InputKind::Test);
                pred::GsharePredictor gshare(14);
                sim::Simulator simulator;
                simulator.addConditional(&gshare);
                trace->reset();
                simulator.run(*trace);
                return simulator.conditionalResults()[0].branches;
            });
        for (const std::uint64_t count : counts)
            branches += count;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(branches));
}
BENCHMARK(BM_ParallelSimulate)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

/**
 * Like BENCHMARK_MAIN(), but the vlpsim cache flags are consumed
 * before google-benchmark sees the command line (it rejects unknown
 * flags). Unrecognized `--benchmark_*=value` flags pass through via
 * the parser's extra() list.
 */
int
main(int argc, char **argv)
{
    util::ArgParser parser(
        "bench_throughput",
        "google-benchmark microbenchmarks of the simulator's hot "
        "paths (unknown --flag=value arguments are forwarded to "
        "google-benchmark)");
    sim::RunOptions options;
    options.registerCacheFlags(parser);
    parser.allowExtra();
    parser.parse(argc, argv);
    throughputStore() = options.openStore();

    std::vector<std::string> forwarded = parser.extra();
    std::vector<char *> filtered;
    filtered.push_back(argv[0]);
    for (std::string &argument : forwarded)
        filtered.push_back(argument.data());
    int filtered_argc = static_cast<int>(filtered.size());
    filtered.push_back(nullptr);

    benchmark::Initialize(&filtered_argc, filtered.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                               filtered.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
