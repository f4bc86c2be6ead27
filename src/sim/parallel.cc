/**
 * @file
 * Parallel experiment engine implementation.
 */

#include "sim/parallel.h"

#include "core/profiler.h"
#include "predictors/budget.h"

namespace vlp {
namespace sim {

ParallelRunner::ParallelRunner(unsigned jobs, SharedMemo &memo)
    : jobs_(jobs == 0 ? util::ThreadPool::defaultThreadCount() : jobs),
      pool_(jobs_ > 1 ? std::make_unique<util::ThreadPool>(jobs_)
                      : nullptr),
      context_(pool_.get(), memo)
{}

void
ParallelRunner::runSharded(std::size_t count,
                           const std::function<void(ExperimentContext &,
                                                    std::size_t)> &fn)
{
    if (!pool_ || count <= 1) {
        // Exact serial path: no pool, no cross-thread hand-off.
        for (std::size_t index = 0; index < count; ++index)
            fn(context_, index);
        return;
    }
    pool_->parallelFor(count,
                       [&](std::size_t index) { fn(context_, index); });
}

std::vector<ComparisonRow>
ParallelRunner::compareSuite(
        const std::vector<workload::BenchmarkSpec> &specs,
        std::size_t bytes, unsigned global_length, bool indirect,
        bool include_tuned)
{
    auto rows = map<ComparisonRow>(
        specs.size(), [&](ExperimentContext &context, std::size_t i) {
            return compare(context, specs[i], bytes, global_length,
                           indirect, include_tuned);
        });
    for (const ComparisonRow &row : rows) {
        for (const RateEntry &entry : row.entries)
            addPredictions(entry.branches);
    }
    return rows;
}

std::vector<double>
ParallelRunner::averageSweep(std::size_t bytes, bool indirect)
{
    std::vector<double> average = context_.averageSweep(bytes, indirect);
    {
        std::lock_guard<std::mutex> lock(countedMutex_);
        if (!countedAverages_.emplace(bytes, indirect).second)
            return average;
    }
    const unsigned index_bits = indirect
        ? pred::indirectIndexBits(bytes)
        : pred::conditionalIndexBits(bytes);
    for (const auto &spec : workload::benchmarkSuite()) {
        // Step 1 drives all maxPathLength fixed-length predictors at
        // once.
        addPredictions(context_.sweep(spec, index_bits, indirect).branches
                       * core::maxPathLength);
    }
    return average;
}

unsigned
ParallelRunner::globalLength(std::size_t bytes, bool indirect)
{
    return argminLength(averageSweep(bytes, indirect));
}

} // namespace sim
} // namespace vlp
