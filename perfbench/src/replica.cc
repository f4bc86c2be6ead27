/**
 * @file
 * Traced replica implementation. Each function mirrors its
 * counterpart in src/sim/experiment.cc and src/sim/parallel.cc call
 * for call; the store keys are rebuilt field for field so the replica
 * reads and writes the same artifacts.
 */

#include "replica.h"

#include <stdexcept>

#include "core/path_predictor.h"
#include "predictors/budget.h"
#include "predictors/gshare.h"
#include "predictors/target_cache.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "store/cache_key.h"
#include "store/serialize.h"
#include "trace/mmap_file.h"
#include "trace/streaming.h"
#include "tracer.h"
#include "util/logging.h"

namespace perfbench {

using namespace vlp;

namespace {

constexpr std::size_t traceCacheCapacity = 4;

// --- store keys (field for field as in src/sim/experiment.cc) -------

store::KeyBuilder
workloadKey(const std::string &kind, const workload::BenchmarkSpec &spec)
{
    store::KeyBuilder builder(kind);
    builder.field("workload", spec.name)
        .field("generator", std::uint64_t{workload::generatorVersion})
        .field("scale", util::workloadScale());
    return builder;
}

store::KeyBuilder
externalKey(const std::string &kind, const ExternalFile &file)
{
    store::KeyBuilder builder(kind);
    builder.field("trace", file.contentHash);
    return builder;
}

void
addProfileFields(store::KeyBuilder &builder,
                 const core::ProfileOptions &options, bool indirect)
{
    builder.field("class", std::string(indirect ? "ind" : "cond"))
        .field("indexBits", std::uint64_t{options.indexBits})
        .field("minLength", std::uint64_t{options.minLength})
        .field("maxLength", std::uint64_t{options.maxLength})
        .field("rotate", options.history.rotateTargets)
        .field("returns", options.history.includeReturns)
        .field("stack", options.history.historyStack)
        .field("stackDepth",
               std::uint64_t{options.history.historyStackDepth});
}

store::CacheKey
profileKey(store::KeyBuilder builder, const core::ProfileOptions &options,
           bool indirect)
{
    addProfileFields(builder, options, indirect);
    return builder.build();
}

store::CacheKey
assignmentKey(store::KeyBuilder builder,
              const core::ProfileOptions &options, bool indirect)
{
    addProfileFields(builder, options, indirect);
    builder.field("candidates", std::uint64_t{options.candidates})
        .field("iterations", std::uint64_t{options.iterations});
    return builder.build();
}

void
addComparisonFields(store::KeyBuilder &builder, bool indirect,
                    std::size_t bytes, unsigned global_length,
                    bool include_tuned)
{
    builder.field("class", std::string(indirect ? "ind" : "cond"))
        .field("bytes", std::uint64_t{bytes})
        .field("globalLength", std::uint64_t{global_length})
        .field("tuned", include_tuned)
        .field("reportSchema", std::uint64_t{sim::reportSchemaVersion});
}

// --- store calls ------------------------------------------------------

std::optional<std::vector<std::uint8_t>>
fetch(store::ArtifactStore &store, const store::CacheKey &key)
{
    Scope scope("store.ArtifactStore.fetch");
    auto payload = store.fetch(key);
    scope.setItems(payload ? 1 : 0);
    return payload;
}

void
insert(store::ArtifactStore &store, const store::CacheKey &key,
       const std::vector<std::uint8_t> &payload)
{
    Scope scope("store.ArtifactStore.insert", payload.size());
    store.insert(key, payload);
}

/**
 * Serves a streaming reader's records one 4096-record chunk at a
 * time, with a decode span around each refill, so time inside
 * StreamingTraceReader::next is measured without a clock read per
 * record.
 */
class ChunkedDecode : public trace::TraceSource
{
  public:
    explicit ChunkedDecode(std::shared_ptr<trace::StreamingTraceReader> reader)
        : reader_(std::move(reader)), buffer_(chunkRecords)
    {}

    bool
    next(trace::BranchRecord &record) override
    {
        if (position_ == filled_) {
            refill();
            if (filled_ == 0)
                return false;
        }
        record = buffer_[position_++];
        return true;
    }

    void
    reset() override
    {
        reader_->reset();
        position_ = filled_ = 0;
    }

    std::uint64_t count() const { return reader_->count(); }

  private:
    static constexpr std::size_t chunkRecords = 4096;

    void
    refill()
    {
        Scope scope("trace.StreamingTraceReader.next");
        position_ = filled_ = 0;
        while (filled_ < chunkRecords && reader_->next(buffer_[filled_]))
            ++filled_;
        scope.setItems(filled_);
    }

    std::shared_ptr<trace::StreamingTraceReader> reader_;
    std::vector<trace::BranchRecord> buffer_;
    std::size_t position_ = 0;
    std::size_t filled_ = 0;
};

std::uint64_t
recordCount(const trace::TraceSource &source)
{
    if (const auto *vector =
            dynamic_cast<const trace::VectorTraceSource *>(&source))
        return vector->size();
    if (const auto *chunked = dynamic_cast<const ChunkedDecode *>(&source))
        return chunked->count();
    return 0;
}

sim::RateEntry
toRateEntry(const sim::PredictorResult &result)
{
    sim::RateEntry entry;
    entry.predictor = result.name;
    entry.branches = result.branches;
    entry.mispredictions = result.mispredictions;
    entry.rate = result.rate();
    return entry;
}

/** runConditionalComparison()/runIndirectComparison(). */
sim::ComparisonRow
replay(const std::string &name, trace::TraceSource &eval_trace,
       unsigned index_bits, unsigned global_length, unsigned tuned_length,
       const core::HashAssignment &assignment, bool include_tuned,
       bool indirect)
{
    sim::ComparisonRow row;
    row.benchmark = name;
    const auto run = [&](sim::Simulator &simulator) {
        eval_trace.reset();
        Scope scope("sim.Simulator.run");
        simulator.run(eval_trace);
    };
    sim::Simulator simulator;
    if (indirect) {
        pred::PathTargetCache chp_path(index_bits);
        pred::PatternTargetCache chp_pattern(index_bits);
        core::PathIndirectPredictor flp(index_bits, global_length);
        core::PathIndirectPredictor flp_tuned(index_bits, tuned_length);
        core::PathIndirectPredictor vlp(index_bits, assignment);
        simulator.addIndirect(&chp_path);
        simulator.addIndirect(&chp_pattern);
        simulator.addIndirect(&flp);
        if (include_tuned)
            simulator.addIndirect(&flp_tuned);
        simulator.addIndirect(&vlp);
        run(simulator);
        for (const auto &result : simulator.indirectResults())
            row.entries.push_back(toRateEntry(result));
    } else {
        pred::GsharePredictor gshare(index_bits);
        core::PathConditionalPredictor flp(index_bits, global_length);
        core::PathConditionalPredictor flp_tuned(index_bits, tuned_length);
        core::PathConditionalPredictor vlp(index_bits, assignment);
        simulator.addConditional(&gshare);
        simulator.addConditional(&flp);
        if (include_tuned)
            simulator.addConditional(&flp_tuned);
        simulator.addConditional(&vlp);
        run(simulator);
        for (const auto &result : simulator.conditionalResults())
            row.entries.push_back(toRateEntry(result));
    }
    if (include_tuned)
        row.entries[indirect ? 3 : 2].predictor = sim::names::flpTuned;
    return row;
}

/** fetchComparisonRow() */
std::optional<sim::ComparisonRow>
fetchRow(store::ArtifactStore *store, const store::CacheKey &key)
{
    if (store == nullptr)
        return std::nullopt;
    const auto payload = fetch(*store, key);
    if (!payload)
        return std::nullopt;
    Scope scope("store.decodeComparisonRow");
    return store::decodeComparisonRow(*payload);
}

void
insertRow(store::ArtifactStore *store, const store::CacheKey &key,
          const sim::ComparisonRow &row)
{
    if (store == nullptr)
        return;
    std::vector<std::uint8_t> payload;
    {
        Scope scope("store.encodeComparisonRow");
        payload = store::encodeComparisonRow(row);
    }
    insert(*store, key, payload);
}

std::uint64_t
predictionsOf(const sim::ComparisonRow &row)
{
    std::uint64_t total = 0;
    for (const auto &entry : row.entries)
        total += entry.branches;
    return total;
}

/**
 * The suite-average rate curve, accumulated in suite order like
 * ExperimentContext/ParallelRunner; the indirect average skips
 * benchmarks with fewer than 1000 indirect branches.
 */
std::vector<double>
suiteAverage(const std::vector<const core::FixedLengthSweep *> &sweeps,
             bool indirect)
{
    std::vector<double> average(core::maxPathLength, 0.0);
    unsigned counted = 0;
    for (const auto *sweep : sweeps) {
        if (indirect && sweep->branches < 1000)
            continue;
        ++counted;
        for (unsigned length = 1; length <= core::maxPathLength; ++length)
            average[length - 1] += sweep->rate(length);
    }
    if (counted == 0)
        throw std::runtime_error("no benchmark produced branches");
    for (double &rate : average)
        rate /= static_cast<double>(counted);
    return average;
}

} // anonymous namespace

std::shared_ptr<trace::TraceSource>
openTraced(const std::string &path)
{
    Scope scope("trace.StreamingTraceReader.open");
    auto reader = std::make_shared<trace::StreamingTraceReader>(
        trace::fastOpener(trace::ReadMode::Auto)(path));
    return std::make_shared<ChunkedDecode>(std::move(reader));
}

std::vector<double>
rates(const core::FixedLengthSweep &sweep)
{
    std::vector<double> result;
    result.reserve(core::maxPathLength);
    for (unsigned length = 1; length <= core::maxPathLength; ++length)
        result.push_back(sweep.rate(length));
    return result;
}

unsigned
argminLength(const std::vector<double> &rates)
{
    unsigned best = 1;
    for (unsigned length = 2; length <= rates.size(); ++length) {
        if (rates[length - 1] < rates[best - 1])
            best = length;
    }
    return best;
}

// --- TracedContext ------------------------------------------------------

std::shared_ptr<trace::VectorTraceSource>
TracedContext::trace(const workload::BenchmarkSpec &spec,
                     workload::InputKind kind)
{
    Scope scope("sim.ExperimentContext.trace");
    const std::string key = spec.name
        + (kind == workload::InputKind::Profile ? "/profile" : "/test");
    for (auto it = traces_.begin(); it != traces_.end(); ++it) {
        if (it->first == key) {
            traces_.splice(traces_.begin(), traces_, it);
            return traces_.front().second;
        }
    }
    std::shared_ptr<trace::VectorTraceSource> source;
    {
        Scope generate("workload.generateTrace");
        source = std::make_shared<trace::VectorTraceSource>(
            workload::generateTrace(spec, kind));
        generate.setItems(source->size());
    }
    traces_.emplace_front(key, source);
    while (traces_.size() > traceCacheCapacity)
        traces_.pop_back();
    return source;
}

TracedContext::Entry &
TracedContext::entry(const std::string &name, unsigned index_bits,
                     bool indirect)
{
    const std::string key = name + "/" + std::to_string(index_bits)
        + (indirect ? "/i" : "/c");
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        core::ProfileOptions options;
        options.indexBits = index_bits;
        Entry fresh;
        if (indirect)
            fresh.indirect = std::make_unique<core::IndirectProfiler>(options);
        else
            fresh.conditional =
                std::make_unique<core::ConditionalProfiler>(options);
        it = entries_.emplace(key, std::move(fresh)).first;
    }
    return it->second;
}

void
TracedContext::ensureStep1(Entry &entry, const store::CacheKey &key,
                           const SourceFn &source_fn)
{
    if (entry.step1Done)
        return;
    if (store_) {
        if (const auto payload = fetch(*store_, key)) {
            core::FixedLengthSweep sweep;
            std::unordered_map<std::uint64_t, core::BranchProfile> profiles;
            {
                Scope scope("store.decodeStep1Profile");
                store::decodeStep1Profile(*payload, sweep, profiles);
            }
            if (entry.indirect)
                entry.indirect->restoreStep1(std::move(sweep),
                                             std::move(profiles));
            else
                entry.conditional->restoreStep1(std::move(sweep),
                                                std::move(profiles));
            entry.step1Done = true;
            return;
        }
    }

    const auto source = source_fn();
    source->reset();
    {
        Scope scope("core.Profiler.runStep1", recordCount(*source));
        if (entry.conditional)
            entry.conditional->runStep1(*source);
        else
            entry.indirect->runStep1(*source);
    }
    entry.step1Done = true;

    if (store_) {
        std::vector<std::uint8_t> payload;
        {
            Scope scope("store.encodeStep1Profile");
            payload = entry.indirect
                ? store::encodeStep1Profile(entry.indirect->step1Sweep(),
                                            entry.indirect->branchProfiles())
                : store::encodeStep1Profile(
                      entry.conditional->step1Sweep(),
                      entry.conditional->branchProfiles());
        }
        insert(*store_, key, payload);
    }
}

const core::HashAssignment &
TracedContext::ensureAssignment(Entry &entry,
                                const store::CacheKey &assignment_key,
                                const store::CacheKey &profile_key,
                                const SourceFn &source_fn)
{
    if (entry.assignment)
        return *entry.assignment;
    if (store_) {
        if (const auto payload = fetch(*store_, assignment_key)) {
            Scope scope("store.decodeAssignment");
            entry.assignment = store::decodeAssignment(*payload);
            return *entry.assignment;
        }
    }

    ensureStep1(entry, profile_key, source_fn);
    const auto source = source_fn();
    source->reset();
    {
        Scope scope("core.Profiler.runStep2", recordCount(*source));
        entry.assignment = entry.conditional
            ? entry.conditional->runStep2(*source)
            : entry.indirect->runStep2(*source);
    }
    if (store_) {
        std::vector<std::uint8_t> payload;
        {
            Scope scope("store.encodeAssignment");
            payload = store::encodeAssignment(*entry.assignment);
        }
        insert(*store_, assignment_key, payload);
    }
    return *entry.assignment;
}

const core::FixedLengthSweep &
TracedContext::sweep(const workload::BenchmarkSpec &spec,
                     unsigned index_bits, bool indirect)
{
    Scope scope(indirect ? "sim.ExperimentContext.indirectSweep"
                         : "sim.ExperimentContext.conditionalSweep");
    Entry &e = entry(spec.name, index_bits, indirect);
    const core::ProfileOptions &options =
        indirect ? e.indirect->options() : e.conditional->options();
    ensureStep1(e, profileKey(workloadKey("profile", spec), options, indirect),
                [&]() -> std::shared_ptr<trace::TraceSource> {
                    return trace(spec, workload::InputKind::Profile);
                });
    return indirect ? e.indirect->step1Sweep() : e.conditional->step1Sweep();
}

const core::HashAssignment &
TracedContext::assignment(const workload::BenchmarkSpec &spec,
                          unsigned index_bits, bool indirect)
{
    Scope scope(indirect ? "sim.ExperimentContext.indirectAssignment"
                         : "sim.ExperimentContext.conditionalAssignment");
    Entry &e = entry(spec.name, index_bits, indirect);
    const core::ProfileOptions &options =
        indirect ? e.indirect->options() : e.conditional->options();
    return ensureAssignment(
        e, assignmentKey(workloadKey("assignment", spec), options, indirect),
        profileKey(workloadKey("profile", spec), options, indirect),
        [&]() -> std::shared_ptr<trace::TraceSource> {
            return trace(spec, workload::InputKind::Profile);
        });
}

const core::FixedLengthSweep &
TracedContext::externalSweep(const ExternalFile &file, unsigned index_bits,
                             bool indirect)
{
    Scope scope("sim.ExperimentContext.externalSweep");
    Entry &e = entry("ext:" + file.contentHash, index_bits, indirect);
    const core::ProfileOptions &options =
        indirect ? e.indirect->options() : e.conditional->options();
    ensureStep1(e, profileKey(externalKey("profile", file), options, indirect),
                [&] { return openTraced(file.path); });
    return indirect ? e.indirect->step1Sweep() : e.conditional->step1Sweep();
}

const core::HashAssignment &
TracedContext::externalAssignment(const ExternalFile &file,
                                  unsigned index_bits, bool indirect)
{
    Scope scope("sim.ExperimentContext.externalAssignment");
    Entry &e = entry("ext:" + file.contentHash, index_bits, indirect);
    const core::ProfileOptions &options =
        indirect ? e.indirect->options() : e.conditional->options();
    return ensureAssignment(
        e, assignmentKey(externalKey("assignment", file), options, indirect),
        profileKey(externalKey("profile", file), options, indirect),
        [&] { return openTraced(file.path); });
}

unsigned
TracedContext::globalLength(std::size_t bytes, bool indirect)
{
    const std::string key =
        (indirect ? "i/" : "c/") + std::to_string(bytes);
    auto it = averages_.find(key);
    if (it == averages_.end()) {
        const unsigned index_bits = indirect
            ? pred::indirectIndexBits(bytes)
            : pred::conditionalIndexBits(bytes);
        std::vector<const core::FixedLengthSweep *> sweeps;
        for (const auto &spec : workload::benchmarkSuite())
            sweeps.push_back(&sweep(spec, index_bits, indirect));
        it = averages_.emplace(key, suiteAverage(sweeps, indirect)).first;
    }
    return argminLength(it->second);
}

sim::ComparisonRow
tracedCompare(TracedContext &context, const workload::BenchmarkSpec &spec,
              std::size_t bytes, unsigned global_length, bool include_tuned,
              bool indirect)
{
    Scope scope(indirect ? "sim.compareIndirect" : "sim.compareConditional");
    store::KeyBuilder builder = workloadKey("comparison", spec);
    addComparisonFields(builder, indirect, bytes, global_length,
                        include_tuned);
    const store::CacheKey key = builder.build();
    if (auto cached = fetchRow(context.store(), key)) {
        scope.setItems(predictionsOf(*cached));
        return *cached;
    }

    const unsigned index_bits = indirect ? pred::indirectIndexBits(bytes)
                                         : pred::conditionalIndexBits(bytes);
    const unsigned tuned_length =
        context.sweep(spec, index_bits, indirect).bestLength();
    const core::HashAssignment &assignment =
        context.assignment(spec, index_bits, indirect);
    const auto test_trace = context.trace(spec, workload::InputKind::Test);
    sim::ComparisonRow row =
        replay(spec.name, *test_trace, index_bits, global_length,
               tuned_length, assignment, include_tuned, indirect);
    insertRow(context.store(), key, row);
    scope.setItems(predictionsOf(row));
    return row;
}

sim::ComparisonRow
tracedCompareExternal(TracedContext &context, const ExternalFile &profile,
                      const ExternalFile &test, std::size_t bytes,
                      unsigned global_length, bool indirect)
{
    Scope scope(indirect ? "sim.compareExternalIndirect"
                         : "sim.compareExternalConditional");
    store::KeyBuilder builder = externalKey("comparison", profile);
    builder.field("test", test.contentHash);
    addComparisonFields(builder, indirect, bytes, global_length, true);
    const store::CacheKey key = builder.build();
    if (auto cached = fetchRow(context.store(), key)) {
        scope.setItems(predictionsOf(*cached));
        return *cached;
    }

    const unsigned index_bits = indirect ? pred::indirectIndexBits(bytes)
                                         : pred::conditionalIndexBits(bytes);
    const unsigned tuned_length =
        context.externalSweep(profile, index_bits, indirect).bestLength();
    const core::HashAssignment &assignment =
        context.externalAssignment(profile, index_bits, indirect);
    const auto eval_trace = openTraced(test.path);
    sim::ComparisonRow row =
        replay(test.name, *eval_trace, index_bits, global_length,
               tuned_length, assignment, true, indirect);
    insertRow(context.store(), key, row);
    scope.setItems(predictionsOf(row));
    return row;
}

// --- ShardedRunner --------------------------------------------------------

ShardedRunner::ShardedRunner(unsigned jobs) : jobs_(jobs), pool_(jobs) {}

void
ShardedRunner::run(std::size_t count,
                   const std::function<void(unsigned, std::size_t)> &fn)
{
    std::exception_ptr failure;
    std::mutex failure_mutex;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, count));
    for (unsigned worker = 0; worker < workers; ++worker) {
        pool_.submit([&, worker] {
            setWorker(worker + 1);
            try {
                for (std::size_t index = worker; index < count;
                     index += jobs_)
                    fn(worker, index);
            } catch (...) {
                std::lock_guard<std::mutex> lock(failure_mutex);
                if (!failure)
                    failure = std::current_exception();
            }
        });
    }
    pool_.wait();
    if (failure)
        std::rethrow_exception(failure);
}

// --- TracedRunner ---------------------------------------------------------

TracedRunner::TracedRunner(unsigned jobs,
                           std::shared_ptr<store::ArtifactStore> store)
    : pool(jobs)
{
    for (unsigned i = 0; i < jobs; ++i)
        contexts.push_back(std::make_unique<TracedContext>(store));
}

const std::vector<double> &
TracedRunner::average(std::size_t bytes, bool indirect)
{
    const std::string key =
        (indirect ? "i/" : "c/") + std::to_string(bytes);
    if (const auto it = averages_.find(key); it != averages_.end())
        return it->second;

    const unsigned bits = indirect ? pred::indirectIndexBits(bytes)
                                   : pred::conditionalIndexBits(bytes);
    const auto &suite = workload::benchmarkSuite();
    std::vector<const core::FixedLengthSweep *> sweeps(suite.size());
    pool.run(suite.size(), [&](unsigned worker, std::size_t i) {
        sweeps[i] = &contexts[worker]->sweep(suite[i], bits, indirect);
    });
    for (const auto *sweep : sweeps)
        predictions += sweep->branches * core::maxPathLength;
    return averages_.emplace(key, suiteAverage(sweeps, indirect))
        .first->second;
}

std::vector<sim::ComparisonRow>
TracedRunner::compareSuite(std::size_t bytes, unsigned global_length,
                           bool indirect)
{
    const auto &suite = workload::benchmarkSuite();
    std::vector<sim::ComparisonRow> rows(suite.size());
    pool.run(suite.size(), [&](unsigned worker, std::size_t i) {
        rows[i] = tracedCompare(*contexts[worker], suite[i], bytes,
                                global_length, false, indirect);
    });
    for (const auto &row : rows)
        predictions += predictionsOf(row);
    return rows;
}

std::shared_ptr<store::ArtifactStore>
openStore(const std::string &dir)
{
    store::StoreOptions options;
    options.directory = dir;
    return std::make_shared<store::ArtifactStore>(options);
}

} // namespace perfbench
