/**
 * @file
 * Experiment harness implementation.
 */

#include "sim/experiment.h"

#include <algorithm>
#include <optional>

#include "core/path_predictor.h"
#include "predictors/budget.h"
#include "predictors/gshare.h"
#include "sim/report.h"
#include "predictors/target_cache.h"
#include "store/artifact_store.h"
#include "store/cache_key.h"
#include "store/serialize.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vlp {
namespace sim {

namespace {

/**
 * Cache-key prefix identifying a synthetic workload: benchmark name,
 * trace generator version, and the global VLPSIM_SCALE (traces are a
 * pure function of these).
 */
store::KeyBuilder
workloadKey(const std::string &kind,
            const workload::BenchmarkSpec &spec)
{
    store::KeyBuilder builder(kind);
    builder.field("workload", spec.name)
        .field("generator",
               std::uint64_t{workload::generatorVersion})
        .field("scale", util::workloadScale());
    return builder;
}

/**
 * Cache-key prefix identifying an external trace: its content hash
 * alone. Generator version and scale are irrelevant to bytes read
 * from disk, and the hash survives renames while invalidating on any
 * content change.
 */
store::KeyBuilder
externalKey(const std::string &kind, const ExternalTrace &trace)
{
    store::KeyBuilder builder(kind);
    builder.field("trace", trace.contentHash);
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

/** Step-1 profile key fields (independent of step-2 parameters). */
store::CacheKey
profileKey(store::KeyBuilder builder,
           const core::ProfileOptions &options, bool indirect)
{
    addProfileFields(builder, options, indirect);
    return builder.build();
}

/** Step-2 assignment key fields (depend on all profile options). */
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
        // Comparison rows feed the structured report pipeline; the
        // schema stamp guarantees a sink/layout change can never be
        // served from a stale cached row.
        .field("reportSchema", std::uint64_t{reportSchemaVersion});
}

/** Key for a full predictor-comparison row (synthetic workload). */
store::CacheKey
comparisonKey(const workload::BenchmarkSpec &spec, bool indirect,
              std::size_t bytes, unsigned global_length,
              bool include_tuned)
{
    store::KeyBuilder builder = workloadKey("comparison", spec);
    addComparisonFields(builder, indirect, bytes, global_length,
                        include_tuned);
    return builder.build();
}

/**
 * Key for a full predictor-comparison row (external trace pair). Both
 * content hashes participate: the row depends on the profile trace
 * (assignment, tuned length) *and* the evaluation trace, so a cached
 * row can never leak across pairings. Self-evaluation is simply the
 * profile == test degenerate case and keys consistently.
 */
store::CacheKey
externalComparisonKey(const ExternalTrace &profile,
                      const ExternalTrace &test, bool indirect,
                      std::size_t bytes, unsigned global_length,
                      bool include_tuned)
{
    store::KeyBuilder builder = externalKey("comparison", profile);
    builder.field("test", test.contentHash);
    addComparisonFields(builder, indirect, bytes, global_length,
                        include_tuned);
    return builder.build();
}

} // anonymous namespace

const RateEntry &
ComparisonRow::entry(const std::string &predictor) const
{
    for (const auto &candidate : entries) {
        if (candidate.predictor == predictor)
            return candidate;
    }
    util::fatal("no such predictor in comparison: " + predictor);
}

ExperimentContext::ExperimentContext(util::ThreadPool *pool)
    : pool_(pool),
      traceCapacity_(traceCacheCapacity * (pool ? pool->size() : 1))
{}

void
ExperimentContext::pinTrace(const std::string &key, TraceEntry &entry)
{
    if (entry.pinned) {
        traceLru_.splice(traceLru_.begin(), traceLru_, entry.lru);
    } else {
        entry.pinned = entry.records.lock();
        traceLru_.push_front(key);
        entry.lru = traceLru_.begin();
    }

    // The bound is on what the cache alone keeps alive. A trace some
    // cursor holds costs nothing extra to keep, and evicting it would
    // only invite a regeneration once its holders let go, so drop the
    // least recently used traces nobody else holds until at most
    // traceCapacity_ remain, counting the one just requested (whose
    // cursor the caller may drop at once).
    const auto unheld = [&](const std::string &name) {
        return name != key && traces_.at(name).pinned.use_count() == 1;
    };
    std::size_t count = 1;
    for (const std::string &name : traceLru_)
        count += unheld(name) ? 1 : 0;
    for (auto it = traceLru_.end();
         count > traceCapacity_ && it != traceLru_.begin();) {
        --it;
        if (!unheld(*it))
            continue;
        traces_.at(*it).pinned.reset();
        it = traceLru_.erase(it);
        --count;
    }
}

std::shared_ptr<trace::VectorTraceSource>
ExperimentContext::trace(const workload::BenchmarkSpec &spec,
                         workload::InputKind kind)
{
    const std::string key = spec.name
        + (kind == workload::InputKind::Profile ? "/profile" : "/test");
    std::unique_lock<std::mutex> lock(mutex_);
    TraceEntry &entry = traces_[key];
    if (entry.generating) {
        // Another thread is generating this trace: wait for it, and
        // share its failure rather than retrying behind its back.
        const std::uint64_t failures = entry.failures;
        traceReady_.wait(lock, [&] {
            return !entry.generating || entry.failures != failures;
        });
        if (entry.failures != failures)
            std::rethrow_exception(entry.error);
    }
    if (auto records = entry.records.lock()) {
        pinTrace(key, entry);
        return std::make_shared<trace::VectorTraceSource>(
            std::move(records));
    }

    entry.generating = true;
    lock.unlock();
    std::shared_ptr<const Records> records;
    try {
        records = workload::generateTrace(spec, kind).shared();
    } catch (...) {
        lock.lock();
        entry.generating = false;
        entry.error = std::current_exception();
        ++entry.failures;
        traceReady_.notify_all();
        throw;
    }
    traceGenerations_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    entry.generating = false;
    entry.records = records;
    pinTrace(key, entry);
    traceReady_.notify_all();
    return std::make_shared<trace::VectorTraceSource>(std::move(records));
}

std::shared_ptr<trace::TraceSource>
ExperimentContext::openExternal(const ExternalTrace &trace) const
{
    if (trace.session) {
        trace.session->reset();
        return trace.session;
    }
    std::unique_ptr<trace::ByteFile> file = trace.opener
        ? trace.opener(trace.path)
        : trace::openByteFile(trace.path);
    return std::make_shared<trace::StreamingTraceReader>(
        std::move(file), trace.chunkRecords);
}

ExperimentContext::Key
ExperimentContext::makeKey(const std::string &name, unsigned index_bits,
                           bool indirect,
                           core::PathHistoryOptions history)
{
    return name + "/" + std::to_string(index_bits)
         + (indirect ? "/i" : "/c")
         + (history.rotateTargets ? "/r1" : "/r0")
         + (history.includeReturns ? "/ret1" : "/ret0")
         + (history.historyStack ? "/hs1" : "/hs0")
         + "/d" + std::to_string(history.depth);
}

ExperimentContext::ProfilerEntry &
ExperimentContext::profilerEntry(const std::string &name,
                                 unsigned index_bits, bool indirect,
                                 core::PathHistoryOptions history)
{
    const Key key = makeKey(name, index_bits, indirect, history);
    std::lock_guard<std::mutex> lock(mutex_);
    // std::map nodes never move, so the entry outlives the lock.
    auto [it, inserted] = profilers_.try_emplace(key);
    if (inserted) {
        core::ProfileOptions options;
        options.indexBits = index_bits;
        options.jobs = step1Jobs_;
        options.history = history;
        if (indirect) {
            it->second.indirect =
                std::make_unique<core::IndirectProfiler>(options);
        } else {
            it->second.conditional =
                std::make_unique<core::ConditionalProfiler>(options);
        }
    }
    return it->second;
}

void
ExperimentContext::ensureStep1(ProfilerEntry &entry,
                               const std::optional<store::CacheKey> &key,
                               const TraceProvider &profile_trace)
{
    entry.step1.call([&] {
        throwIfCancelled();
        const bool indirect = entry.indirect != nullptr;
        if (store_ && key) {
            if (const auto payload = store_->fetch(*key)) {
                try {
                    core::FixedLengthSweep sweep;
                    std::unordered_map<std::uint64_t,
                                       core::BranchProfile>
                        profiles;
                    store::decodeStep1Profile(*payload, sweep, profiles);
                    if (indirect) {
                        entry.indirect->restoreStep1(
                            std::move(sweep), std::move(profiles));
                    } else {
                        entry.conditional->restoreStep1(
                            std::move(sweep), std::move(profiles));
                    }
                    return;
                } catch (const std::exception &error) {
                    util::warn(std::string("discarding unusable cached "
                                           "profile: ")
                               + error.what());
                }
            }
        }

        const auto source = profile_trace();
        source->reset();
        if (entry.conditional)
            entry.conditional->runStep1(*source);
        else
            entry.indirect->runStep1(*source);

        if (store_ && key) {
            const core::FixedLengthSweep &sweep =
                indirect ? entry.indirect->step1Sweep()
                         : entry.conditional->step1Sweep();
            const auto &profiles = indirect
                ? entry.indirect->branchProfiles()
                : entry.conditional->branchProfiles();
            store_->insert(*key,
                           store::encodeStep1Profile(sweep, profiles));
        }
    });
}

const core::HashAssignment &
ExperimentContext::ensureAssignment(
        ProfilerEntry &entry,
        const std::optional<store::CacheKey> &assignment_key,
        const std::optional<store::CacheKey> &profile_key,
        const TraceProvider &profile_trace)
{
    entry.step2.call([&] {
        throwIfCancelled();
        // A cached assignment short-circuits both profiling steps;
        // only probe step 1 (and possibly recompute it) on a miss.
        if (store_ && assignment_key) {
            if (const auto payload = store_->fetch(*assignment_key)) {
                try {
                    entry.assignment = store::decodeAssignment(*payload);
                    return;
                } catch (const std::exception &error) {
                    util::warn(std::string("discarding unusable cached "
                                           "assignment: ")
                               + error.what());
                }
            }
        }

        ensureStep1(entry, profile_key, profile_trace);
        const auto source = profile_trace();
        source->reset();
        entry.assignment = entry.conditional
            ? entry.conditional->runStep2(*source)
            : entry.indirect->runStep2(*source);
        if (store_ && assignment_key) {
            store_->insert(*assignment_key,
                           store::encodeAssignment(*entry.assignment));
        }
    });
    return *entry.assignment;
}

const core::FixedLengthSweep &
ExperimentContext::conditionalSweep(const workload::BenchmarkSpec &spec,
                                    unsigned index_bits,
                                    core::PathHistoryOptions history)
{
    ProfilerEntry &entry =
        profilerEntry(spec.name, index_bits, false, history);
    std::optional<store::CacheKey> key;
    if (store_) {
        key = profileKey(workloadKey("profile", spec),
                         entry.conditional->options(), false);
    }
    ensureStep1(entry, key, [&] {
        return trace(spec, workload::InputKind::Profile);
    });
    return entry.conditional->step1Sweep();
}

const core::FixedLengthSweep &
ExperimentContext::indirectSweep(const workload::BenchmarkSpec &spec,
                                 unsigned index_bits,
                                 core::PathHistoryOptions history)
{
    ProfilerEntry &entry =
        profilerEntry(spec.name, index_bits, true, history);
    std::optional<store::CacheKey> key;
    if (store_) {
        key = profileKey(workloadKey("profile", spec),
                         entry.indirect->options(), true);
    }
    ensureStep1(entry, key, [&] {
        return trace(spec, workload::InputKind::Profile);
    });
    return entry.indirect->step1Sweep();
}

const core::HashAssignment &
ExperimentContext::conditionalAssignment(
        const workload::BenchmarkSpec &spec, unsigned index_bits,
        core::PathHistoryOptions history)
{
    ProfilerEntry &entry =
        profilerEntry(spec.name, index_bits, false, history);
    std::optional<store::CacheKey> assignment_key;
    std::optional<store::CacheKey> profile_key;
    if (store_) {
        assignment_key = assignmentKey(
            workloadKey("assignment", spec),
            entry.conditional->options(), false);
        profile_key = profileKey(workloadKey("profile", spec),
                                 entry.conditional->options(), false);
    }
    return ensureAssignment(entry, assignment_key, profile_key, [&] {
        return trace(spec, workload::InputKind::Profile);
    });
}

const core::HashAssignment &
ExperimentContext::indirectAssignment(const workload::BenchmarkSpec &spec,
                                      unsigned index_bits,
                                      core::PathHistoryOptions history)
{
    ProfilerEntry &entry =
        profilerEntry(spec.name, index_bits, true, history);
    std::optional<store::CacheKey> assignment_key;
    std::optional<store::CacheKey> profile_key;
    if (store_) {
        assignment_key = assignmentKey(
            workloadKey("assignment", spec),
            entry.indirect->options(), true);
        profile_key = profileKey(workloadKey("profile", spec),
                                 entry.indirect->options(), true);
    }
    return ensureAssignment(entry, assignment_key, profile_key, [&] {
        return trace(spec, workload::InputKind::Profile);
    });
}

const core::FixedLengthSweep &
ExperimentContext::externalSweep(const ExternalTrace &ext,
                                 unsigned index_bits, bool indirect)
{
    // "ext:" + hash cannot collide with a benchmark name, so external
    // profilers share the in-process map with synthetic ones.
    ProfilerEntry &entry = profilerEntry("ext:" + ext.contentHash,
                                         index_bits, indirect, {});
    std::optional<store::CacheKey> key;
    if (store_) {
        const core::ProfileOptions &options =
            indirect ? entry.indirect->options()
                     : entry.conditional->options();
        key = profileKey(externalKey("profile", ext), options,
                         indirect);
    }
    ensureStep1(entry, key, [&]() -> std::shared_ptr<trace::TraceSource> {
        return openExternal(ext);
    });
    return indirect ? entry.indirect->step1Sweep()
                    : entry.conditional->step1Sweep();
}

const core::HashAssignment &
ExperimentContext::externalAssignment(const ExternalTrace &ext,
                                      unsigned index_bits,
                                      bool indirect)
{
    ProfilerEntry &entry = profilerEntry("ext:" + ext.contentHash,
                                         index_bits, indirect, {});
    std::optional<store::CacheKey> assignment_key;
    std::optional<store::CacheKey> profile_key;
    if (store_) {
        const core::ProfileOptions &options =
            indirect ? entry.indirect->options()
                     : entry.conditional->options();
        assignment_key = assignmentKey(externalKey("assignment", ext),
                                       options, indirect);
        profile_key = profileKey(externalKey("profile", ext), options,
                                 indirect);
    }
    return ensureAssignment(
        entry, assignment_key, profile_key,
        [&]() -> std::shared_ptr<trace::TraceSource> {
            return openExternal(ext);
        });
}

std::vector<double>
rateCurve(const core::FixedLengthSweep &sweep)
{
    // Term for term FixedLengthSweep::rate(), over every stored length.
    std::vector<double> rates(sweep.mispredictions.size(), 0.0);
    if (sweep.branches == 0)
        return rates;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        rates[i] = 100.0 * static_cast<double>(sweep.mispredictions[i])
            / static_cast<double>(sweep.branches);
    }
    return rates;
}

void
SuiteAverage::add(const std::vector<double> &rates)
{
    for (std::size_t l = 0; l < rates.size(); ++l)
        sum_[l] += rates[l];
    ++count_;
}

std::vector<double>
SuiteAverage::average() const
{
    std::vector<double> average = sum_;
    for (double &rate : average)
        rate /= static_cast<double>(count_);
    return average;
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

std::vector<double>
ExperimentContext::averageSweep(std::size_t bytes, bool indirect)
{
    AverageEntry *entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entry = &averages_[(indirect ? "i/" : "c/")
                           + std::to_string(bytes)];
    }
    entry->once.call([&] {
        const unsigned index_bits = indirect
            ? pred::indirectIndexBits(bytes)
            : pred::conditionalIndexBits(bytes);
        const auto &suite = workload::benchmarkSuite();
        std::vector<const core::FixedLengthSweep *> sweeps(suite.size());
        const auto sweep_one = [&](std::size_t i) {
            sweeps[i] = indirect ? &indirectSweep(suite[i], index_bits)
                                 : &conditionalSweep(suite[i], index_bits);
        };
        if (pool_) {
            pool_->parallelFor(suite.size(), sweep_one);
        } else {
            for (std::size_t i = 0; i < suite.size(); ++i)
                sweep_one(i);
        }

        SuiteAverage average;
        for (const core::FixedLengthSweep *sweep : sweeps) {
            if (indirect && sweep->branches < minIndirectBranches)
                continue;
            average.add(rateCurve(*sweep));
        }
        if (average.count() == 0)
            util::fatal("no benchmark produced indirect branches");
        entry->rates = average.average();
    });
    return entry->rates;
}

std::vector<double>
ExperimentContext::averageConditionalSweep(std::size_t bytes)
{
    return averageSweep(bytes, false);
}

std::vector<double>
ExperimentContext::averageIndirectSweep(std::size_t bytes)
{
    return averageSweep(bytes, true);
}

unsigned
ExperimentContext::globalConditionalLength(std::size_t bytes)
{
    return argminLength(averageConditionalSweep(bytes));
}

unsigned
ExperimentContext::globalIndirectLength(std::size_t bytes)
{
    return argminLength(averageIndirectSweep(bytes));
}

namespace {

RateEntry
toRateEntry(const PredictorResult &result)
{
    RateEntry entry;
    entry.predictor = result.name;
    entry.branches = result.branches;
    entry.mispredictions = result.mispredictions;
    entry.rate = result.rate();
    return entry;
}

/** Fetch a cached comparison row, or nullopt on miss/corruption. */
std::optional<ComparisonRow>
fetchComparisonRow(store::ArtifactStore *store,
                   const store::CacheKey &key)
{
    if (!store)
        return std::nullopt;
    const auto payload = store->fetch(key);
    if (!payload)
        return std::nullopt;
    try {
        return store::decodeComparisonRow(*payload);
    } catch (const std::exception &error) {
        util::warn(std::string("discarding unusable cached comparison "
                               "row: ")
                   + error.what());
        return std::nullopt;
    }
}

/**
 * Shared conditional-comparison body: build the predictor set, replay
 * the evaluation trace, and assemble the row.
 */
ComparisonRow
runConditionalComparison(const std::string &name,
                         trace::TraceSource &eval_trace,
                         unsigned index_bits, unsigned global_length,
                         unsigned tuned_length,
                         const core::HashAssignment &assignment,
                         bool include_tuned)
{
    pred::GsharePredictor gshare(index_bits);
    core::PathConditionalPredictor flp(index_bits, global_length);
    core::PathConditionalPredictor flp_tuned(index_bits, tuned_length);
    core::PathConditionalPredictor vlp(index_bits, assignment);

    Simulator simulator;
    simulator.addConditional(&gshare);
    simulator.addConditional(&flp);
    if (include_tuned)
        simulator.addConditional(&flp_tuned);
    simulator.addConditional(&vlp);

    eval_trace.reset();
    simulator.run(eval_trace);

    ComparisonRow row;
    row.benchmark = name;
    for (const auto &result : simulator.conditionalResults())
        row.entries.push_back(toRateEntry(result));
    if (include_tuned)
        row.entries[2].predictor = names::flpTuned;
    return row;
}

/** Indirect counterpart of runConditionalComparison(). */
ComparisonRow
runIndirectComparison(const std::string &name,
                      trace::TraceSource &eval_trace,
                      unsigned index_bits, unsigned global_length,
                      unsigned tuned_length,
                      const core::HashAssignment &assignment,
                      bool include_tuned)
{
    pred::PathTargetCache chp_path(index_bits);
    pred::PatternTargetCache chp_pattern(index_bits);
    core::PathIndirectPredictor flp(index_bits, global_length);
    core::PathIndirectPredictor flp_tuned(index_bits, tuned_length);
    core::PathIndirectPredictor vlp(index_bits, assignment);

    Simulator simulator;
    simulator.addIndirect(&chp_path);
    simulator.addIndirect(&chp_pattern);
    simulator.addIndirect(&flp);
    if (include_tuned)
        simulator.addIndirect(&flp_tuned);
    simulator.addIndirect(&vlp);

    eval_trace.reset();
    simulator.run(eval_trace);

    ComparisonRow row;
    row.benchmark = name;
    for (const auto &result : simulator.indirectResults())
        row.entries.push_back(toRateEntry(result));
    if (include_tuned)
        row.entries[3].predictor = names::flpTuned;
    return row;
}

} // anonymous namespace

ComparisonRow
compareConditional(ExperimentContext &context,
                   const workload::BenchmarkSpec &spec,
                   std::size_t bytes, unsigned global_length,
                   bool include_tuned)
{
    context.throwIfCancelled();
    const store::CacheKey key =
        comparisonKey(spec, false, bytes, global_length, include_tuned);
    if (auto cached = fetchComparisonRow(context.store(), key))
        return *cached;

    const unsigned index_bits = pred::conditionalIndexBits(bytes);
    const unsigned tuned_length =
        context.conditionalSweep(spec, index_bits).bestLength();
    const core::HashAssignment &assignment =
        context.conditionalAssignment(spec, index_bits);

    const auto test_trace =
        context.trace(spec, workload::InputKind::Test);
    ComparisonRow row = runConditionalComparison(
        spec.name, *test_trace, index_bits, global_length, tuned_length,
        assignment, include_tuned);
    if (auto *store = context.store())
        store->insert(key, store::encodeComparisonRow(row));
    return row;
}

ComparisonRow
compareIndirect(ExperimentContext &context,
                const workload::BenchmarkSpec &spec, std::size_t bytes,
                unsigned global_length, bool include_tuned)
{
    context.throwIfCancelled();
    const store::CacheKey key =
        comparisonKey(spec, true, bytes, global_length, include_tuned);
    if (auto cached = fetchComparisonRow(context.store(), key))
        return *cached;

    const unsigned index_bits = pred::indirectIndexBits(bytes);
    const unsigned tuned_length =
        context.indirectSweep(spec, index_bits).bestLength();
    const core::HashAssignment &assignment =
        context.indirectAssignment(spec, index_bits);

    const auto test_trace =
        context.trace(spec, workload::InputKind::Test);
    ComparisonRow row = runIndirectComparison(
        spec.name, *test_trace, index_bits, global_length, tuned_length,
        assignment, include_tuned);
    if (auto *store = context.store())
        store->insert(key, store::encodeComparisonRow(row));
    return row;
}

ComparisonRow
compareExternalConditional(ExperimentContext &context,
                           const ExternalTrace &profile,
                           const ExternalTrace &test, std::size_t bytes,
                           unsigned global_length)
{
    context.throwIfCancelled();
    const store::CacheKey key = externalComparisonKey(
        profile, test, false, bytes, global_length, true);
    if (auto cached = fetchComparisonRow(context.store(), key))
        return *cached;

    // Everything learned comes from the profile trace (and is cached
    // under its content hash); only the replay below touches the test
    // trace.
    const unsigned index_bits = pred::conditionalIndexBits(bytes);
    const unsigned tuned_length =
        context.externalSweep(profile, index_bits, false).bestLength();
    const core::HashAssignment &assignment =
        context.externalAssignment(profile, index_bits, false);

    const auto eval_trace = context.openExternal(test);
    ComparisonRow row = runConditionalComparison(
        test.name, *eval_trace, index_bits, global_length,
        tuned_length, assignment, true);
    if (auto *store = context.store())
        store->insert(key, store::encodeComparisonRow(row));
    return row;
}

ComparisonRow
compareExternalIndirect(ExperimentContext &context,
                        const ExternalTrace &profile,
                        const ExternalTrace &test, std::size_t bytes,
                        unsigned global_length)
{
    context.throwIfCancelled();
    const store::CacheKey key = externalComparisonKey(
        profile, test, true, bytes, global_length, true);
    if (auto cached = fetchComparisonRow(context.store(), key))
        return *cached;

    const unsigned index_bits = pred::indirectIndexBits(bytes);
    const unsigned tuned_length =
        context.externalSweep(profile, index_bits, true).bestLength();
    const core::HashAssignment &assignment =
        context.externalAssignment(profile, index_bits, true);

    const auto eval_trace = context.openExternal(test);
    ComparisonRow row = runIndirectComparison(
        test.name, *eval_trace, index_bits, global_length,
        tuned_length, assignment, true);
    if (auto *store = context.store())
        store->insert(key, store::encodeComparisonRow(row));
    return row;
}

ComparisonRow
compareExternalConditional(ExperimentContext &context,
                           const ExternalTrace &trace,
                           std::size_t bytes, unsigned global_length)
{
    return compareExternalConditional(context, trace, trace, bytes,
                                      global_length);
}

ComparisonRow
compareExternalIndirect(ExperimentContext &context,
                        const ExternalTrace &trace, std::size_t bytes,
                        unsigned global_length)
{
    return compareExternalIndirect(context, trace, trace, bytes,
                                   global_length);
}

} // namespace sim
} // namespace vlp
