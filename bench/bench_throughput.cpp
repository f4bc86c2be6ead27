/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * predictor lookup/update, the incremental path-index bank, trace
 * generation, one full profiling step, the artifact-store entry
 * checksum and the JSON report render. These quantify simulation
 * throughput, not prediction accuracy.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/path_history.h"
#include "core/path_predictor.h"
#include "core/profiler.h"
#include "predictors/gshare.h"
#include "predictors/target_cache.h"
#include "sim/parallel.h"
#include "sim/report.h"
#include "sim/service.h"
#include "sim/simulator.h"
#include "store/artifact_store.h"
#include "util/checksum.h"
#include "util/json.h"
#include "util/rng.h"
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
 * bits), one pass over the trace.
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
 * The artifact-store entry checksum over a 1 MiB payload, against the
 * byte-serial FNV-1a it replaced: a warm hit verifies its whole
 * payload, so bytes/s here bounds a served request. CI requires XXH64
 * to stay at least 4x FNV-1a.
 */
template <std::uint64_t (*Hash)(const void *, std::size_t, std::uint64_t),
          std::uint64_t Seed>
void
BM_EntryChecksum(benchmark::State &state)
{
    std::vector<std::uint8_t> payload(std::size_t{1} << 20);
    util::Rng rng(17);
    for (std::uint8_t &byte : payload)
        byte = static_cast<std::uint8_t>(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(Hash(payload.data(), payload.size(), Seed));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(payload.size()));
}
BENCHMARK_TEMPLATE(BM_EntryChecksum, util::fnv1a,
                   util::Fnv1a::offsetBasis)
    ->Name("BM_EntryChecksum/fnv1a");
BENCHMARK_TEMPLATE(BM_EntryChecksum, util::xxh64, 0)
    ->Name("BM_EntryChecksum/xxh64");

/**
 * Rendering a finished report as JSON: the 3-budget conditional sweep
 * (48 percent rows) through JsonReportSink, the last step of a warm
 * served request. The sweep runs once, at VLPSIM_SCALE, through the
 * --cache-dir store when one is given.
 */
void
BM_ReportJson(benchmark::State &state)
{
    static const sim::Report report = [] {
        sim::SweepSpec spec;
        spec.budgets = {1024, 4096, 16384};
        spec.jobs = 0;
        return sim::runSweep(spec, throughputStore()).report;
    }();
    std::size_t bytes = 0;
    for (auto _ : state) {
        util::JsonWriter writer(util::JsonWriter::Style::Compact);
        sim::JsonReportSink().write(report, writer);
        bytes += writer.str().size();
        benchmark::DoNotOptimize(writer.str().data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ReportJson)->Unit(benchmark::kMicrosecond);

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
