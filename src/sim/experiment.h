/**
 * @file
 * High-level experiment harness: everything the bench binaries need to
 * regenerate the paper's tables and figures.
 *
 * ExperimentContext memoizes the expensive artifacts: generated
 * traces (each interned once, shared zero-copy) and profiling results
 * (step-1 sweeps, step-2 assignments, suite averages and comparison
 * rows per benchmark/size), so a bench that needs the global fixed
 * length *and* per-benchmark VLP assignments profiles each benchmark
 * exactly once, however many threads ask. Generated traces and
 * synthetic step-1 results also go through the process-wide
 * SharedMemo, so a second context in the same process reuses them.
 *
 * Both branch classes share every accessor and comparison: a
 * `bool indirect` argument selects the class, as it does in the cache
 * keys (class=cond|ind).
 */

#ifndef VLPSIM_SIM_EXPERIMENT_H
#define VLPSIM_SIM_EXPERIMENT_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/path_history.h"
#include "core/profiler.h"
#include "sim/shared_memo.h"
#include "sim/simulator.h"
#include "store/cache_key.h"
#include "trace/compact_trace.h"
#include "trace/streaming.h"
#include "util/cancel.h"
#include "util/once.h"
#include "workload/benchmarks.h"

namespace vlp {
namespace store {
class ArtifactStore;
} // namespace store

namespace util {
class ThreadPool;
} // namespace util

namespace sim {

/** One predictor's accuracy in a comparison. */
struct RateEntry
{
    std::string predictor;
    std::uint64_t branches = 0;
    std::uint64_t mispredictions = 0;
    /** Misprediction rate in percent. */
    double rate = 0.0;
};

/** All predictors' accuracies on one benchmark. */
struct ComparisonRow
{
    std::string benchmark;
    std::vector<RateEntry> entries;

    /**
     * Entry by predictor name.
     * @throws std::runtime_error if absent
     */
    const RateEntry &entry(const std::string &predictor) const;
};

/**
 * An external on-disk .vbt trace as consumed by the experiment layer.
 *
 * Identity for caching is the file's *content hash* (see
 * trace::hashTraceFile), not the synthetic generator version or
 * VLPSIM_SCALE: artifacts survive renames and moves of the trace
 * file, and a changed file can never be served stale artifacts.
 * A trace the suite runner has verified arrives resident (an interned
 * trace::CompactTrace, file already closed) or, when the process's
 * resident budget could not hold it, as a parked streaming session.
 * One of the two is always set: external traces enter the experiment
 * layer only through the verifying open (trace::TracePrefetcher::
 * openTrace), never as a bare path.
 */
struct ExternalTrace
{
    /** Display name (usually the file's basename). */
    std::string name;
    /** Path to the .vbt file. */
    std::string path;
    /** 32-hex content hash of the file (trace::hashTraceFile). */
    std::string contentHash;
    /** The verified records held in memory (the suite runner's
     *  ingestion pass interns them here). When set, openExternal()
     *  returns a cursor over them and never touches the file. */
    std::shared_ptr<const trace::CompactTrace> resident;
    /** Optional persistent open for a trace too large to keep
     *  resident: a reader kept alive across replays (the suite
     *  runner parks the open it verified here). When set,
     *  openExternal() rewinds and returns this session instead of
     *  reopening the path. */
    std::shared_ptr<trace::StreamingTraceReader> session;
};

/**
 * Memo of traces and profiling artifacts for one runner (or one
 * request), layered over the process-wide SharedMemo.
 *
 * Every accessor is a pure function of its arguments, memoized behind
 * a latch, so one context may be shared by any number of threads: each
 * trace and each profile, assignment, suite average and comparison row
 * is obtained once per key, with concurrent requesters waiting on the
 * in-flight computation. A computation that fails or is cancelled
 * leaves its key unset (the next request recomputes it), and every
 * waiter rethrows its error. The configuration setters (setStore(),
 * setCancelToken()) are not synchronized: call them before sharing the
 * context.
 *
 * With an attached ArtifactStore (setStore()), profiling results are
 * additionally persisted on disk: step-1 sweeps, step-2 assignments,
 * and full comparison rows are fetched from the store when present and
 * written back after being computed, so a warm rerun skips the
 * fixed-length sweeps entirely while producing bit-identical results
 * (the serialized artifacts carry the exact integer counters).
 *
 * Generated traces, and step-1 results of synthetic workloads that the
 * store does not hold, come from the SharedMemo: a context that misses
 * its store takes them from there, and only the memo generates a trace
 * or runs a step-1 pass, once per process. The store still sees every
 * fetch, miss and insert it would see without the memo. External
 * traces, their sweeps and every other artifact stay in the context.
 */
class ExperimentContext
{
  public:
    /**
     * @param pool optional worker pool: the suite averages fan their
     *             per-benchmark sweeps out over it. The pool must
     *             outlive the context.
     * @param memo the memo shared with other contexts; tests pass a
     *             fresh one. It must outlive the context.
     */
    explicit ExperimentContext(util::ThreadPool *pool = nullptr,
                               SharedMemo &memo = SharedMemo::process())
        : pool_(pool), memo_(memo)
    {
    }

    ExperimentContext(const ExperimentContext &) = delete;
    ExperimentContext &operator=(const ExperimentContext &) = delete;

    /**
     * Attach an on-disk artifact store (shared freely across contexts
     * and threads; pass nullptr to detach).
     */
    void setStore(std::shared_ptr<store::ArtifactStore> store)
    {
        store_ = std::move(store);
    }

    /** The attached artifact store, or nullptr. */
    store::ArtifactStore *store() const { return store_.get(); }

    /**
     * Attach a cooperative cancellation token (pass nullptr to
     * detach). Expensive operations — profiling steps, comparison
     * replays — check it at their entry, so a cancelled request
     * unwinds with util::CancelledError at the next step boundary
     * without tearing caches or stored artifacts.
     */
    void setCancelToken(std::shared_ptr<const util::CancelToken> token)
    {
        cancel_ = std::move(token);
    }

    /** The attached cancellation token, or nullptr. */
    const std::shared_ptr<const util::CancelToken> &
    cancelToken() const
    {
        return cancel_;
    }

    /** @throws util::CancelledError once the attached token fires */
    void throwIfCancelled() const
    {
        if (cancel_)
            cancel_->throwIfCancelled();
    }

    /**
     * A fresh cursor over the benchmark's trace on the given input,
     * interned into a trace::CompactTrace. The SharedMemo generates
     * each trace once per process and keeps it while its byte cap has
     * room; a trace over it is generated for this context and kept
     * for the context's lifetime. Cursors share the immutable
     * trace, so it is never copied and every caller replays at its own
     * position.
     * @throws util::CancelledError when the attached token has fired
     *         before the trace was obtained
     */
    std::shared_ptr<trace::TraceSource>
    trace(const workload::BenchmarkSpec &spec, workload::InputKind kind);

    /**
     * Step-1 sweep for the branch class @p indirect selects, of
     * @p spec at @p index_bits (profile input), cached.
     */
    const core::FixedLengthSweep &
    sweep(const workload::BenchmarkSpec &spec, unsigned index_bits,
          bool indirect, core::PathHistoryOptions history = {});

    /** Full two-step profiling result, cached like sweep(). */
    const core::HashAssignment &
    assignment(const workload::BenchmarkSpec &spec, unsigned index_bits,
               bool indirect, core::PathHistoryOptions history = {});

    /** sweep(spec, index_bits, false, history); kept for perfbench/src
     *  until the replica is re-mirrored. */
    const core::FixedLengthSweep &
    conditionalSweep(const workload::BenchmarkSpec &spec,
                     unsigned index_bits,
                     core::PathHistoryOptions history = {})
    {
        return sweep(spec, index_bits, false, history);
    }

    /**
     * Open an external trace for one replay: a fresh cursor over the
     * resident copy when the trace carries one (cursors may overlap),
     * else the parked session rewound. External traces live with
     * their ExternalTrace, not in this context's trace memo. Replays
     * of a shared session must not overlap (the suite runner keeps
     * each pair's sessions on one thread at a time).
     * @throws std::logic_error when the trace carries neither (it
     *         was never verified)
     * @throws util::TransientError / std::runtime_error from a
     *         session's file
     */
    std::shared_ptr<trace::TraceSource>
    openExternal(const ExternalTrace &trace) const;

    /**
     * Step-1 sweep over an external trace, cached in this context and
     * (with a store attached) on disk under the trace's content hash.
     */
    const core::FixedLengthSweep &
    externalSweep(const ExternalTrace &trace, unsigned index_bits,
                  bool indirect);

    /** Full two-step profiling result for an external trace, cached
     *  like externalSweep(). */
    const core::HashAssignment &
    externalAssignment(const ExternalTrace &trace, unsigned index_bits,
                       bool indirect);

    /**
     * Average misprediction rate per path length of the branch class
     * @p indirect selects, over the whole suite at a table of @p bytes
     * (profile inputs) — the curve whose minimum defines the paper's
     * global fixed length (Table 2). Indirect averages skip benchmarks
     * with fewer than minIndirectBranches indirect branches. The
     * per-benchmark sweeps fan out over the pool, if any; the average
     * accumulates in suite order (SuiteAverage), so it is bit-identical
     * for any pool size.
     * @return rates[L-1] in percent for L = 1..32
     */
    std::vector<double> averageSweep(std::size_t bytes, bool indirect);

    /** The global fixed path length: argminLength(averageSweep()). */
    unsigned globalLength(std::size_t bytes, bool indirect);

    /** globalLength(bytes, false); kept for perfbench/src until the
     *  replica is re-mirrored. */
    unsigned globalConditionalLength(std::size_t bytes)
    {
        return globalLength(bytes, false);
    }

    /**
     * The comparison row under store key @p key (its canonical text),
     * memoized like the profiling artifacts: @p compute — which
     * fetches from the store or replays and inserts — runs once per
     * key, so two requests for an identical row cost one store lookup
     * however they are scheduled. compare() and compareExternal() go
     * through here.
     */
    ComparisonRow row(const std::string &key,
                      const std::function<ComparisonRow()> &compute);

    /**
     * Predictions this context simulated, one per predictor per
     * branch: the step-1 passes it ran (not the sweeps it took from
     * the store or the SharedMemo) and the comparison replays. A run
     * answered from the store alone counts 0.
     */
    std::uint64_t simulatedPredictions() const
    {
        return simulated_.load(std::memory_order_relaxed);
    }

    /** Thread-safe: count @p count predictions simulated here. */
    void addSimulated(std::uint64_t count)
    {
        simulated_.fetch_add(count, std::memory_order_relaxed);
    }

  private:
    struct ProfilerEntry
    {
        core::ProfileOptions options;
        bool indirect = false;
        /** Synthetic workloads share step 1 through the SharedMemo.
         *  External ones do not: their keys name whatever corpus a
         *  request brings and seldom recur, and a memo that never
         *  evicts keeps its room for the suite's keys, which do. */
        bool shared = false;
        store::CacheKey profileKey;
        /** The profile key with kind "sweep": step 1's aggregate
         *  alone, so a warm hit reads 32 counts, not every branch's
         *  profile. */
        store::CacheKey sweepKey;
        store::CacheKey assignmentKey;
        util::Once step1;
        /** Step 1's aggregate, by value on every path: decoded from a
         *  store hit, copied from the memo's or this context's
         *  profiler. Written under step1 only. */
        core::FixedLengthSweep sweep;
        util::Once step2;
        /** The per-branch records for step 2: the profiler step 1
         *  ran or took from the memo (set under step1), or, after a
         *  store hit, one restored from the profile entry (or step 1
         *  run again) under step2 when the assignment misses. Read
         *  only under step2. */
        std::shared_ptr<const core::Profiler> profiler;
        std::optional<core::HashAssignment> assignment;
    };

    struct AverageEntry
    {
        util::Once once;
        std::vector<double> rates;
    };

    struct RowEntry
    {
        util::Once once;
        ComparisonRow row;
    };

    struct TraceEntry
    {
        util::Once once;
        std::shared_ptr<const trace::CompactTrace> trace;
    };

    /** Produces a fresh (reset) profile-input trace on demand. */
    using TraceProvider =
        std::function<std::shared_ptr<trace::TraceSource>()>;

    /** The store-key prefix of one artifact kind ("profile",
     *  "sweep", "assignment") for the profiled trace. */
    using KeyPrefix = std::function<store::KeyBuilder(const char *kind)>;

    /**
     * The entry for one profiled trace and configuration, keyed by the
     * text of its profile store key.
     * @param shared whether step 1 goes through the SharedMemo
     */
    ProfilerEntry &profilerEntry(const KeyPrefix &prefix,
                                 unsigned index_bits, bool indirect,
                                 core::PathHistoryOptions history,
                                 bool shared);

    /**
     * Ensure step 1 has run for @p entry: take its sweep from the
     * store's sweep entry, else from its profile entry (checking the
     * per-branch records without keeping them) and then write the
     * sweep entry, so the next warm hit reads only that; otherwise
     * run step 1 (computeStep1()).
     */
    const core::FixedLengthSweep &
    ensureStep1(ProfilerEntry &entry, const TraceProvider &profile_trace);

    /** Step 1 for @p entry from the SharedMemo (a shared entry) or a
     *  replay of @p profile_trace, its profile entry persisted. A
     *  cold run writes no sweep entry: a file create costs more than
     *  the one warm conversion it saves. */
    std::shared_ptr<const core::Profiler>
    computeStep1(const ProfilerEntry &entry,
                 const TraceProvider &profile_trace);

    /** The profiler restored from @p entry's profile entry, or
     *  nullptr when the store no longer holds a usable one. */
    std::shared_ptr<const core::Profiler>
    storedProfiler(const ProfilerEntry &entry);

    /** Shared body of the two assignment accessors: the stored
     *  assignment, else step 1 (ensureStep1()), the per-branch
     *  records (storedProfiler(), or computeStep1() when that entry
     *  is gone) if step 1 was a store hit, then step 2. */
    const core::HashAssignment &
    ensureAssignment(ProfilerEntry &entry,
                     const TraceProvider &profile_trace);

    util::ThreadPool *pool_;
    SharedMemo &memo_;
    std::shared_ptr<const util::CancelToken> cancel_;
    std::shared_ptr<store::ArtifactStore> store_;

    /** Guards the maps below (never a computation). Traces and
     *  profilers are keyed by store key text. */
    std::mutex mutex_;
    std::map<std::string, TraceEntry> traces_;
    std::map<std::string, ProfilerEntry> profilers_;
    std::map<std::string, AverageEntry> averages_;
    std::map<std::string, RowEntry> rows_;
    std::atomic<std::uint64_t> simulated_{0};
};

/** Indirect sweeps with fewer branches stay out of suite averages: a
 *  program with a handful of indirect branch sites contributes noise,
 *  not signal. */
inline constexpr std::uint64_t minIndirectBranches = 1000;

/** A sweep's rate curve: rates[L-1] = sweep.rate(L), in percent. */
std::vector<double> rateCurve(const core::FixedLengthSweep &sweep);

/**
 * Suite-average rate curve. Curves are summed term by term in the
 * order they are added, then divided by their count; callers add them
 * in suite order, so the floating-point result is bit-identical no
 * matter which threads computed the curves.
 */
class SuiteAverage
{
  public:
    /** Add one curve (rates[L-1], at most core::maxPathLength). */
    void add(const std::vector<double> &rates);

    /** Curves added so far. */
    unsigned count() const { return count_; }

    /** The sum divided by count(), per length. @pre count() > 0 */
    std::vector<double> average() const;

  private:
    std::vector<double> sum_ =
        std::vector<double>(core::maxPathLength, 0.0);
    unsigned count_ = 0;
};

/** The path length (1-based) with the lowest rate; ties: shortest. */
unsigned argminLength(const std::vector<double> &rates);

/**
 * Compare the paper's predictors for the branch class @p indirect
 * selects on one benchmark, all with tables of @p bytes, evaluated on
 * the test input. Conditional rows hold gshare, fixed length path (at
 * @p global_length), optionally "fixed length path (tuned)" (the
 * per-benchmark best profiled length), and variable length path.
 * Indirect rows lead with the Chang-Hao-Patt path and pattern target
 * caches in place of gshare.
 */
ComparisonRow compare(ExperimentContext &context,
                      const workload::BenchmarkSpec &spec,
                      std::size_t bytes, unsigned global_length,
                      bool indirect, bool include_tuned = false);

/** compare(context, spec, bytes, global_length, false, include_tuned);
 *  kept for perfbench/src until the replica is re-mirrored. */
inline ComparisonRow
compareConditional(ExperimentContext &context,
                   const workload::BenchmarkSpec &spec, std::size_t bytes,
                   unsigned global_length, bool include_tuned = false)
{
    return compare(context, spec, bytes, global_length, false,
                   include_tuned);
}

/**
 * compare() for an external trace pair — the paper's §3 methodology:
 * profile on one input, evaluate on another. All profiling artifacts
 * (step-1 sweep, tuned length, step-2 assignment) come from
 * @p profile and are cached under *its* content hash, so swapping the
 * evaluation trace reuses them; the predictors are then replayed over
 * @p test. The row's cache key carries both content hashes — a row
 * evaluated on one test trace can never be served for another. The
 * row always includes the profile-tuned fixed length. Self-evaluation
 * is the profile == test case, which overstates accuracy; the suite
 * runner labels it "self-eval".
 */
ComparisonRow compareExternal(ExperimentContext &context,
                              const ExternalTrace &profile,
                              const ExternalTrace &test, std::size_t bytes,
                              unsigned global_length, bool indirect);

/** Canonical predictor display names used in comparison rows. */
namespace names {
inline constexpr const char *gshare = "gshare";
inline constexpr const char *flp = "fixed length path";
inline constexpr const char *flpTuned = "fixed length path (tuned)";
inline constexpr const char *vlp = "variable length path";
inline constexpr const char *chpPath = "path (Chang, Hao, and Patt)";
inline constexpr const char *chpPattern = "pattern (Chang, Hao, and Patt)";
} // namespace names

} // namespace sim
} // namespace vlp

#endif // VLPSIM_SIM_EXPERIMENT_H
