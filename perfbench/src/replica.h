/**
 * @file
 * Traced replica of the experiment layer's call sequence.
 *
 * sim::ExperimentContext and the runners call workload generation,
 * the profilers, the store and the simulator internally, where the
 * benchmark cannot wrap them. TracedContext issues the same sequence
 * of public calls itself — the same trace LRU, the same store keys,
 * the same fetch/step-1/step-2/insert order — with a span around each
 * one. A traced run proves it did the same work as the untraced run by
 * producing identical result rows and store counters.
 */

#ifndef PERFBENCH_REPLICA_H
#define PERFBENCH_REPLICA_H

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/hash_assignment.h"
#include "core/profiler.h"
#include "sim/experiment.h"
#include "store/artifact_store.h"
#include "trace/trace_source.h"
#include "util/thread_pool.h"
#include "workload/benchmarks.h"

namespace perfbench {

/** An external .vbt trace: display name, path, content hash. */
struct ExternalFile
{
    std::string name;
    std::string path;
    std::string contentHash;
};

/** Span-wrapped counterpart of sim::ExperimentContext. */
class TracedContext
{
  public:
    explicit TracedContext(std::shared_ptr<vlp::store::ArtifactStore> store)
        : store_(std::move(store))
    {}

    TracedContext(const TracedContext &) = delete;
    TracedContext &operator=(const TracedContext &) = delete;

    vlp::store::ArtifactStore *store() const { return store_.get(); }

    /** ExperimentContext::trace(): 4-entry LRU over generateTrace. */
    std::shared_ptr<vlp::trace::VectorTraceSource>
    trace(const vlp::workload::BenchmarkSpec &spec,
          vlp::workload::InputKind kind);

    /** ExperimentContext::conditionalSweep()/indirectSweep(). */
    const vlp::core::FixedLengthSweep &
    sweep(const vlp::workload::BenchmarkSpec &spec, unsigned index_bits,
          bool indirect);

    /** ExperimentContext::*Assignment(). */
    const vlp::core::HashAssignment &
    assignment(const vlp::workload::BenchmarkSpec &spec,
               unsigned index_bits, bool indirect);

    /** ExperimentContext::externalSweep(). */
    const vlp::core::FixedLengthSweep &
    externalSweep(const ExternalFile &file, unsigned index_bits,
                  bool indirect);

    /** ExperimentContext::externalAssignment(). */
    const vlp::core::HashAssignment &
    externalAssignment(const ExternalFile &file, unsigned index_bits,
                       bool indirect);

    /** ExperimentContext::globalConditionalLength()/Indirect(): the
     *  serial suite average on this context. */
    unsigned globalLength(std::size_t bytes, bool indirect);

  private:
    struct Entry
    {
        std::unique_ptr<vlp::core::ConditionalProfiler> conditional;
        std::unique_ptr<vlp::core::IndirectProfiler> indirect;
        bool step1Done = false;
        std::optional<vlp::core::HashAssignment> assignment;
    };

    using SourceFn =
        std::function<std::shared_ptr<vlp::trace::TraceSource>()>;

    Entry &entry(const std::string &name, unsigned index_bits,
                 bool indirect);
    void ensureStep1(Entry &entry, const vlp::store::CacheKey &key,
                     const SourceFn &source);
    const vlp::core::HashAssignment &
    ensureAssignment(Entry &entry,
                     const vlp::store::CacheKey &assignment_key,
                     const vlp::store::CacheKey &profile_key,
                     const SourceFn &source);

    std::shared_ptr<vlp::store::ArtifactStore> store_;
    std::list<std::pair<std::string,
                        std::shared_ptr<vlp::trace::VectorTraceSource>>>
        traces_;
    std::map<std::string, Entry> entries_;
    std::map<std::string, std::vector<double>> averages_;
};

/** sim::compareConditional()/compareIndirect() on a TracedContext. */
vlp::sim::ComparisonRow
tracedCompare(TracedContext &context,
              const vlp::workload::BenchmarkSpec &spec, std::size_t bytes,
              unsigned global_length, bool include_tuned, bool indirect);

/** sim::compareExternal*() (paired) on a TracedContext. */
vlp::sim::ComparisonRow
tracedCompareExternal(TracedContext &context, const ExternalFile &profile,
                      const ExternalFile &test, std::size_t bytes,
                      unsigned global_length, bool indirect);

/** Open @p path for one streaming replay, with open and per-chunk
 *  decode spans. */
std::shared_ptr<vlp::trace::TraceSource> openTraced(const std::string &path);

/** Per-length misprediction rates of a sweep, lengths 1..32. */
std::vector<double> rates(const vlp::core::FixedLengthSweep &sweep);

/** Index of the minimum rate, as a 1-based path length. */
unsigned argminLength(const std::vector<double> &rates);

/**
 * ParallelRunner-style static sharding: item i runs on worker
 * i % jobs, each worker in increasing index order, with the worker
 * index (from 1) recorded on the spans it opens.
 */
class ShardedRunner
{
  public:
    explicit ShardedRunner(unsigned jobs);

    unsigned jobs() const { return jobs_; }

    void run(std::size_t count,
             const std::function<void(unsigned worker, std::size_t index)>
                 &fn);

  private:
    unsigned jobs_;
    vlp::util::ThreadPool pool_;
};

/** Span-wrapped counterpart of sim::ParallelRunner: per-worker
 *  contexts over one shared store, plus its prediction counter. */
struct TracedRunner
{
    TracedRunner(unsigned jobs, std::shared_ptr<vlp::store::ArtifactStore> store);

    /** ParallelRunner::averageConditionalSweep/averageIndirectSweep
     *  (cached per budget, like the runner). */
    const std::vector<double> &average(std::size_t bytes, bool indirect);

    /** ParallelRunner::compareConditionalSuite/compareIndirectSuite. */
    std::vector<vlp::sim::ComparisonRow>
    compareSuite(std::size_t bytes, unsigned global_length, bool indirect);

    ShardedRunner pool;
    std::vector<std::unique_ptr<TracedContext>> contexts;
    std::uint64_t predictions = 0;

  private:
    std::map<std::string, std::vector<double>> averages_;
};

/** An empty-or-existing artifact store at @p dir. */
std::shared_ptr<vlp::store::ArtifactStore> openStore(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_REPLICA_H
