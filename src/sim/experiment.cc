/**
 * @file
 * Experiment harness implementation.
 */

#include "sim/experiment.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "predictors/budget.h"
#include "sim/replay.h"
#include "sim/report.h"
#include "store/artifact_store.h"
#include "store/cache_key.h"
#include "store/serialize.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vlp {
namespace sim {

namespace {

/** Table index bits of a @p bytes predictor of the class @p indirect
 *  selects. */
unsigned
indexBits(std::size_t bytes, bool indirect)
{
    return indirect ? pred::indirectIndexBits(bytes)
                    : pred::conditionalIndexBits(bytes);
}

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

/** Memo key of a generated trace: the workload key plus the input. */
std::string
traceKey(const workload::BenchmarkSpec &spec, workload::InputKind kind)
{
    store::KeyBuilder builder = workloadKey("trace", spec);
    builder.field("input",
                  std::string(kind == workload::InputKind::Profile
                                  ? "profile"
                                  : "test"));
    return builder.build().text();
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

/**
 * The checked sweep of a stored step-1 payload (a sweep or a profile
 * entry, @p kind), or nullopt when there is none or it is unusable.
 * The payload passes every check a full restore makes, but the
 * per-branch records are only walked, never built.
 */
std::optional<core::FixedLengthSweep>
storedSweep(const std::optional<std::vector<std::uint8_t>> &payload,
            const core::ProfileOptions &options, const char *kind)
{
    if (!payload)
        return std::nullopt;
    try {
        core::FixedLengthSweep sweep = store::decodeStep1Sweep(*payload);
        core::checkRestoredSweep(options, sweep);
        return sweep;
    } catch (const std::exception &error) {
        util::warn(std::string("discarding unusable cached ") + kind
                   + ": " + error.what());
        return std::nullopt;
    }
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

std::shared_ptr<trace::TraceSource>
ExperimentContext::trace(const workload::BenchmarkSpec &spec,
                         workload::InputKind kind)
{
    const std::string key = traceKey(spec, kind);
    TraceEntry *entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entry = &traces_[key];
    }
    entry->once.call([&] {
        throwIfCancelled();
        entry->trace = memo_.trace(key, cancel_.get(), [&] {
            trace::VectorTraceSource generated =
                workload::generateTrace(spec, kind);
            return trace::CompactTrace::intern(generated);
        });
    });
    return std::make_shared<trace::CompactTraceCursor>(entry->trace);
}

std::shared_ptr<trace::TraceSource>
ExperimentContext::openExternal(const ExternalTrace &trace) const
{
    if (trace.resident)
        return std::make_shared<trace::CompactTraceCursor>(trace.resident);
    if (!trace.session)
        throw std::logic_error("external trace " + trace.path
                               + " was never verified: it carries "
                                 "neither a resident copy nor a "
                                 "session");
    trace.session->reset();
    return trace.session;
}

ExperimentContext::ProfilerEntry &
ExperimentContext::profilerEntry(const KeyPrefix &prefix,
                                 unsigned index_bits, bool indirect,
                                 core::PathHistoryOptions history,
                                 bool shared)
{
    core::ProfileOptions options;
    options.indexBits = index_bits;
    options.history = history;
    store::CacheKey profile_key =
        profileKey(prefix("profile"), options, indirect);
    std::lock_guard<std::mutex> lock(mutex_);
    // std::map nodes never move, so the entry outlives the lock.
    auto [it, inserted] = profilers_.try_emplace(profile_key.text());
    if (inserted) {
        ProfilerEntry &entry = it->second;
        entry.options = options;
        entry.indirect = indirect;
        entry.shared = shared;
        entry.profileKey = std::move(profile_key);
        entry.sweepKey = profileKey(prefix("sweep"), options, indirect);
        entry.assignmentKey =
            assignmentKey(prefix("assignment"), options, indirect);
    }
    return it->second;
}

const core::FixedLengthSweep &
ExperimentContext::ensureStep1(ProfilerEntry &entry,
                               const TraceProvider &profile_trace)
{
    entry.step1.call([&] {
        throwIfCancelled();
        if (store_) {
            // An absent sweep entry is no miss: the profile entry
            // below holds the same sweep.
            if (auto sweep = storedSweep(store_->probe(entry.sweepKey),
                                         entry.options, "sweep")) {
                entry.sweep = std::move(*sweep);
                return;
            }
            if (auto sweep = storedSweep(store_->fetch(entry.profileKey),
                                         entry.options, "profile")) {
                entry.sweep = std::move(*sweep);
                // Once per key: the next warm hit reads the sweep
                // entry instead of the whole profile.
                store_->insert(entry.sweepKey,
                               store::encodeStep1Profile(entry.sweep, {}));
                return;
            }
        }
        entry.profiler = computeStep1(entry, profile_trace);
        entry.sweep = entry.profiler->step1Sweep();
    });
    return entry.sweep;
}

std::shared_ptr<const core::Profiler>
ExperimentContext::computeStep1(const ProfilerEntry &entry,
                                const TraceProvider &profile_trace)
{
    const auto run = [&] {
        auto profiler =
            std::make_shared<core::Profiler>(entry.options, entry.indirect);
        const auto source = profile_trace();
        // Generating the trace may have taken a while: check again
        // before the pass.
        throwIfCancelled();
        source->reset();
        profiler->runStep1(*source);
        return std::shared_ptr<const core::Profiler>(std::move(profiler));
    };
    auto profiler = entry.shared
        ? memo_.step1(entry.profileKey.text(), cancel_.get(), run)
        : run();
    if (store_) {
        store_->insert(entry.profileKey,
                       store::encodeStep1Profile(profiler->step1Sweep(),
                                                 profiler->branchProfiles()));
    }
    return profiler;
}

std::shared_ptr<const core::Profiler>
ExperimentContext::storedProfiler(const ProfilerEntry &entry)
{
    const auto payload = store_->fetch(entry.profileKey);
    if (!payload)
        return nullptr;
    try {
        core::FixedLengthSweep sweep;
        std::unordered_map<std::uint64_t, core::BranchProfile> profiles;
        store::decodeStep1Profile(*payload, sweep, profiles);
        auto profiler =
            std::make_shared<core::Profiler>(entry.options, entry.indirect);
        profiler->restoreStep1(std::move(sweep), std::move(profiles));
        return profiler;
    } catch (const std::exception &error) {
        util::warn(std::string("discarding unusable cached profile: ")
                   + error.what());
        return nullptr;
    }
}

const core::HashAssignment &
ExperimentContext::ensureAssignment(ProfilerEntry &entry,
                                    const TraceProvider &profile_trace)
{
    entry.step2.call([&] {
        throwIfCancelled();
        // A cached assignment short-circuits both profiling steps;
        // only probe step 1 (and possibly recompute it) on a miss.
        if (store_) {
            if (const auto payload = store_->fetch(entry.assignmentKey)) {
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

        ensureStep1(entry, profile_trace);
        if (!entry.profiler) {
            // Step 1 was a store hit, which kept only the sweep.
            entry.profiler = storedProfiler(entry);
            if (!entry.profiler)
                entry.profiler = computeStep1(entry, profile_trace);
        }
        const auto source = profile_trace();
        source->reset();
        entry.assignment = entry.profiler->runStep2(*source);
        if (store_) {
            store_->insert(entry.assignmentKey,
                           store::encodeAssignment(*entry.assignment));
        }
    });
    return *entry.assignment;
}

const core::FixedLengthSweep &
ExperimentContext::sweep(const workload::BenchmarkSpec &spec,
                         unsigned index_bits, bool indirect,
                         core::PathHistoryOptions history)
{
    const auto prefix = [&](const char *kind) {
        return workloadKey(kind, spec);
    };
    return ensureStep1(
        profilerEntry(prefix, index_bits, indirect, history, true),
        [&] { return trace(spec, workload::InputKind::Profile); });
}

const core::HashAssignment &
ExperimentContext::assignment(const workload::BenchmarkSpec &spec,
                              unsigned index_bits, bool indirect,
                              core::PathHistoryOptions history)
{
    const auto prefix = [&](const char *kind) {
        return workloadKey(kind, spec);
    };
    return ensureAssignment(
        profilerEntry(prefix, index_bits, indirect, history, true),
        [&] { return trace(spec, workload::InputKind::Profile); });
}

const core::FixedLengthSweep &
ExperimentContext::externalSweep(const ExternalTrace &ext,
                                 unsigned index_bits, bool indirect)
{
    // External step-1 results stay in this context (and the store,
    // under the trace's content hash), never in the SharedMemo.
    const auto prefix = [&](const char *kind) {
        return externalKey(kind, ext);
    };
    return ensureStep1(
        profilerEntry(prefix, index_bits, indirect, {}, false),
        [&]() -> std::shared_ptr<trace::TraceSource> {
            return openExternal(ext);
        });
}

const core::HashAssignment &
ExperimentContext::externalAssignment(const ExternalTrace &ext,
                                      unsigned index_bits,
                                      bool indirect)
{
    const auto prefix = [&](const char *kind) {
        return externalKey(kind, ext);
    };
    return ensureAssignment(
        profilerEntry(prefix, index_bits, indirect, {}, false),
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
        const unsigned index_bits = indexBits(bytes, indirect);
        const auto &suite = workload::benchmarkSuite();
        std::vector<const core::FixedLengthSweep *> sweeps(suite.size());
        const auto sweep_one = [&](std::size_t i) {
            sweeps[i] = &sweep(suite[i], index_bits, indirect);
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

unsigned
ExperimentContext::globalLength(std::size_t bytes, bool indirect)
{
    return argminLength(averageSweep(bytes, indirect));
}

ComparisonRow
ExperimentContext::row(const std::string &key,
                       const std::function<ComparisonRow()> &compute)
{
    RowEntry *entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entry = &rows_[key];
    }
    entry->once.call([&] { entry->row = compute(); });
    return entry->row;
}

namespace {

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
 * The one comparison body, memoized in @p context under @p key: the
 * stored row under @p key, else the tuned length and assignment from
 * @p profile_sweep / @p profile_assignment, a replay over the trace
 * @p eval_trace opens, and a store insert.
 */
template <typename Sweep, typename Assign, typename Open>
ComparisonRow
compareWith(ExperimentContext &context, const store::CacheKey &key,
            const std::string &name, std::size_t bytes,
            unsigned global_length, bool indirect, bool include_tuned,
            Sweep &&profile_sweep, Assign &&profile_assignment,
            Open &&eval_trace)
{
    context.throwIfCancelled();
    return context.row(key.text(), [&] {
        if (auto cached = fetchComparisonRow(context.store(), key))
            return *cached;

        const unsigned index_bits = indexBits(bytes, indirect);
        const unsigned tuned_length =
            profile_sweep(index_bits).bestLength();
        const core::HashAssignment &assignment =
            profile_assignment(index_bits);
        const auto trace = eval_trace();
        ComparisonRow row = replayComparison(
            name, *trace, indirect, index_bits, global_length,
            tuned_length, assignment, include_tuned);
        if (auto *store = context.store())
            store->insert(key, store::encodeComparisonRow(row));
        return row;
    });
}

} // anonymous namespace

ComparisonRow
compare(ExperimentContext &context, const workload::BenchmarkSpec &spec,
        std::size_t bytes, unsigned global_length, bool indirect,
        bool include_tuned)
{
    return compareWith(
        context,
        comparisonKey(spec, indirect, bytes, global_length, include_tuned),
        spec.name, bytes, global_length, indirect, include_tuned,
        [&](unsigned bits) -> const core::FixedLengthSweep & {
            return context.sweep(spec, bits, indirect);
        },
        [&](unsigned bits) -> const core::HashAssignment & {
            return context.assignment(spec, bits, indirect);
        },
        [&] { return context.trace(spec, workload::InputKind::Test); });
}

ComparisonRow
compareExternal(ExperimentContext &context, const ExternalTrace &profile,
                const ExternalTrace &test, std::size_t bytes,
                unsigned global_length, bool indirect)
{
    // Everything learned comes from the profile trace (and is cached
    // under its content hash); only the replay touches the test trace.
    return compareWith(
        context,
        externalComparisonKey(profile, test, indirect, bytes,
                              global_length, true),
        test.name, bytes, global_length, indirect, true,
        [&](unsigned bits) -> const core::FixedLengthSweep & {
            return context.externalSweep(profile, bits, indirect);
        },
        [&](unsigned bits) -> const core::HashAssignment & {
            return context.externalAssignment(profile, bits, indirect);
        },
        [&] { return context.openExternal(test); });
}

} // namespace sim
} // namespace vlp
