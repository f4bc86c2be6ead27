/**
 * @file
 * Robust suite runner for external trace corpora.
 *
 * TraceSuiteRunner replays the paper's methodology over a directory of
 * .vbt traces: traces are first grouped into profile/test *pairs*
 * (the paper's §3 split — profile on one input, evaluate on another),
 * then per pair: step-1 sweeps over the profile trace, a suite-wide
 * global fixed length, and predictor-comparison rows evaluated on
 * both the profile trace (train accuracy) and the test trace (test
 * accuracy), reported side by side with the generalization delta.
 *
 * Pairing, in precedence order:
 *  - an explicit manifest (TraceSuiteOptions::manifest, or
 *    `pairs.txt` in the corpus root when present): one
 *    `<pair> <profile.vbt> <test.vbt>` line per pair; traces on disk
 *    that the manifest never references are reported as orphaned;
 *  - the `<stem>.profile.vbt` / `<stem>.test.vbt` name convention;
 *    a convention-marked trace whose mate is missing is orphaned;
 *  - any other lone trace falls back to *self-evaluation* (profile ==
 *    test), clearly labeled `self-eval` in every output — the honest
 *    cross-evaluated numbers need two inputs per workload.
 *
 * Unlike the synthetic pipeline it must survive hostile inputs:
 *
 *  - transient IO failures are retried with exponential backoff
 *    (util::TransientError is the retry signal) under
 *    TraceSuiteOptions::retry;
 *  - traces that stay unreadable — truncated files, checksum
 *    mismatches, malformed records — are quarantined with a structured
 *    cause and the run continues; the exit status is only nonzero when
 *    *every* pair failed (an empty corpus is a distinct condition —
 *    see SuiteReport::empty());
 *  - with an artifact store attached, every completed sweep,
 *    assignment and comparison row is published atomically under a
 *    key naming the content hashes it depends on, so a killed run
 *    rerun on the same store resumes where it left off and produces a
 *    report byte-identical to an uninterrupted run — and an edited
 *    manifest can never replay a row computed for a different pairing.
 *
 * Ingestion verifies once and is pipelined: every trace is opened and
 * read once per attempt by one fused pass — content hash, VBT2
 * checksum, decode, and per-record checks (trace/content_hash.h) — so
 * a corrupt trace is quarantined before any profiling, and a bounded
 * prefetcher verifies upcoming traces while earlier ones simulate
 * (trace/prefetch.h). Prefetching affects throughput only, never
 * results.
 *
 * Memory contract: the verifying pass interns each trace into a
 * resident trace::CompactTrace (about 4 bytes per record) and closes
 * the file; every sweep and comparison replays that copy. A pair's
 * traces are held from its validation until its last row is done (or
 * it is quarantined or skipped), then released. All resident traces
 * in the process — every suite run's, a serve daemon's included —
 * draw on one byte budget (trace::residentTraceBudgetBytes). A trace
 * that does not fit streams instead: its file stays open as a parked
 * session that re-reads and re-checksums it on every replay, holding
 * one streaming chunk of buffer. Results are byte-identical either
 * way.
 *
 * Determinism contract: workers claim pairs dynamically — validation
 * and step-1 sweeps in sorted-name order, comparisons largest pair
 * first — through one memo shared by every worker, so which worker
 * runs a pair, and when, is left to the schedule. Per-pair work is a
 * pure function of the trace bytes and options, the suite-wide
 * averages accumulate in sorted order, and the report is assembled in
 * sorted order on the controlling thread — so the printed report is
 * bit-identical across jobs values, interruptions, and resumes, and
 * with a store attached each artifact is fetched or computed once per
 * run at any jobs value.
 */

#ifndef VLPSIM_SIM_SUITE_RUNNER_H
#define VLPSIM_SIM_SUITE_RUNNER_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/report.h"
#include "trace/byte_file.h"
#include "util/retry.h"

namespace vlp {
namespace store {
class ArtifactStore;
} // namespace store

namespace sim {

/** Configuration for one external-trace suite run. */
struct TraceSuiteOptions
{
    /** Directory scanned (recursively) for .vbt traces. */
    std::string directory;
    /** Predictor table budget in bytes. */
    std::size_t bytes = 8 * 1024;
    /** Worker threads across traces (0 = one per hardware thread;
     *  per-trace step-1 sweeps stay serial, so replay buffers stay at
     *  jobs x one chunk on top of the resident traces). */
    unsigned jobs = 1;
    /**
     * Pair-manifest path. Empty = use `<directory>/pairs.txt` when it
     * exists, otherwise pair by the `.profile.vbt`/`.test.vbt` name
     * convention with self-eval fallback.
     */
    std::string manifest;
    /**
     * How transient failures of a trace operation are retried (its
     * cancel token is ignored: the runner sets it from cancel below).
     */
    util::RetryPolicy retry;
    /** File opener override; empty = trace::openByteFile, which maps
     *  a regular file and reads anything else through stdio (tests
     *  inject faults, count opens or pin a backend here). */
    trace::FileOpener opener;
    /** Optional artifact store shared by all workers; rerunning a
     *  killed run on the same store is how it resumes. */
    std::shared_ptr<store::ArtifactStore> store;
    /**
     * Pin the suite-wide global history lengths instead of deriving
     * them from the profiled pairs (nullopt = derive; an explicit 0
     * pins "no evaluation for this class"). Per-pair rows are a pure
     * function of the pair's traces and the global lengths, so
     * pinning lets a reference run be compared pair-by-pair against a
     * run whose pair set differed (the chaos campaign's
     * quarantine-tolerant baseline).
     */
    std::optional<unsigned> forceGlobalConditionalLength;
    std::optional<unsigned> forceGlobalIndirectLength;
    /**
     * Cooperative cancellation token; null = never cancelled. Once it
     * fires the run unwinds with util::CancelledError at the next
     * step boundary (between pairs, sweeps, and retry backoffs) —
     * cancellation aborts the run, it never quarantines pairs.
     */
    std::shared_ptr<const util::CancelToken> cancel;
};

/** Per-pair disposition in a suite run. */
enum class TraceStatus {
    /** Fully processed; comparison rows present. */
    Ok,
    /** Unreadable or invalid after retries; excluded from results. */
    Quarantined,
    /** Readable but carries no usable branches; excluded. */
    Skipped,
    /** A trace no pairing claimed: a manifest never references it, or
     *  its `.profile.vbt`/`.test.vbt` mate is missing. Never silently
     *  self-evaluated. */
    Orphaned,
};

/** One profile/test trace pairing, before any IO. */
struct TracePair
{
    /** Pair display name (manifest name, convention stem, or the
     *  trace's own name for self-eval); stable sort key. */
    std::string name;
    /** Profile-trace name relative to the corpus directory. */
    std::string profileName;
    /** Profile-trace path on disk. */
    std::string profilePath;
    /** Test-trace name; equals profileName for self-eval. */
    std::string testName;
    std::string testPath;
    /** True when profile and test are the same file (fallback). */
    bool selfEval = false;
};

/** A trace the pairing stage could not place, with why. */
struct OrphanTrace
{
    std::string name;
    std::string path;
    std::string cause;
};

/** How a corpus was grouped into pairs. */
struct TracePairing
{
    /** Pairs in sorted-name order. */
    std::vector<TracePair> pairs;
    /** Unplaceable traces in sorted-name order. */
    std::vector<OrphanTrace> orphans;
};

/** Everything the suite learned about one pair. */
struct TraceOutcome
{
    /** Pair name (stable sort key). */
    std::string name;
    /** Test-trace path on disk (equals profilePath for self-eval). */
    std::string path;
    TraceStatus status = TraceStatus::Ok;
    /** Failure/skip/orphan cause; empty for Ok pairs. */
    std::string cause;
    /** True when the pair is the labeled self-eval fallback. */
    bool selfEval = false;
    /** Profile-trace name relative to the corpus directory. */
    std::string profileName;
    std::string profilePath;
    /** Test-trace name; equals profileName for self-eval. */
    std::string testName;
    /** Container version of the profile / test trace (1 = VBT1,
     *  2 = VBT2); 0 when that header was never successfully read. */
    unsigned profileFormatVersion = 0;
    unsigned formatVersion = 0;
    /** Records promised by the profile / test trace header. */
    std::uint64_t profileRecords = 0;
    std::uint64_t records = 0;
    /** Conditional branches seen while profiling (profile trace). */
    std::uint64_t conditionalBranches = 0;
    /** Indirect branches seen while profiling (profile trace). */
    std::uint64_t indirectBranches = 0;
    /** Train-side rows: evaluated on the profile trace itself.
     *  Absent for self-eval pairs (train == test there). */
    std::optional<ComparisonRow> conditionalTrain;
    std::optional<ComparisonRow> indirectTrain;
    /** Test-side rows: evaluated on the test trace. */
    std::optional<ComparisonRow> conditional;
    std::optional<ComparisonRow> indirect;

    /**
     * Generalization delta for the variable length path predictor:
     * test rate minus train rate, in percent points (positive =
     * accuracy lost between inputs). Absent unless both sides exist.
     */
    std::optional<double> conditionalDelta() const;
    std::optional<double> indirectDelta() const;
};

/** Structured result of a suite run. */
struct SuiteReport
{
    /** Pair (and orphan) outcomes in sorted-name order. */
    std::vector<TraceOutcome> traces;
    std::size_t bytes = 0;
    unsigned globalConditionalLength = 0;
    /** 0 when no trace had enough indirect branches to evaluate. */
    unsigned globalIndirectLength = 0;

    std::size_t okCount() const;
    std::size_t quarantinedCount() const;
    std::size_t skippedCount() const;
    std::size_t orphanedCount() const;
    /** Ok pairs with a real profile/test split (not self-eval). */
    std::size_t crossEvaluatedCount() const;

    /** True when the corpus had no .vbt traces at all — distinct from
     *  allFailed() so callers can diagnose an empty or mistyped
     *  directory instead of "every trace quarantined". */
    bool empty() const { return traces.empty(); }

    /** True when traces were found but no pair completed — the run
     *  produced nothing. False for an empty corpus (see empty()). */
    bool allFailed() const { return !traces.empty() && okCount() == 0; }

    /**
     * Structured view of the suite: every trace becomes a section
     * (status text, then one Entries table per branch class), and the
     * suite-level facts — byte budget, global lengths, ok/quarantined/
     * skipped counts, plus per-trace quarantine and skip causes —
     * land in the report metadata so CSV/JSON exports carry them.
     */
    Report toReport() const;

    /**
     * Deterministic text rendering: identical doubles produce
     * identical bytes, independent of jobs, interruption, or resume.
     * Equivalent to streaming toReport() through AsciiReportSink.
     */
    void print(std::ostream &out) const;
};

/** Runs the external-trace suite described by TraceSuiteOptions. */
class TraceSuiteRunner
{
  public:
    explicit TraceSuiteRunner(TraceSuiteOptions options);

    TraceSuiteRunner(const TraceSuiteRunner &) = delete;
    TraceSuiteRunner &operator=(const TraceSuiteRunner &) = delete;

    /**
     * Execute the suite: discover, validate, sweep, compare.
     * @throws std::runtime_error only for environment-level failures
     *         (unreadable directory);
     *         per-trace failures are reported, never thrown
     */
    SuiteReport run();

    /**
     * The .vbt files under @p directory (recursive), sorted by
     * path-relative name. Exposed for the CLI and tests.
     * @return (relative name, full path) pairs
     * @throws std::runtime_error if the directory cannot be read
     */
    static std::vector<std::pair<std::string, std::string>>
    discoverTraces(const std::string &directory);

    /**
     * Group discovered traces into profile/test pairs.
     *
     * With a non-empty @p manifest_path the manifest drives pairing:
     * one `<pair-name> <profile> <test>` line per pair (`#` comments
     * and blank lines ignored; trace names relative to the corpus
     * root, exactly as discoverTraces() reports them). A manifest
     * line naming a trace that was not discovered still yields the
     * pair — opening it fails downstream and the pair is quarantined
     * with the real IO cause. Discovered traces the manifest never
     * references come back as orphans.
     *
     * Without a manifest, `<stem>.profile.vbt` pairs with
     * `<stem>.test.vbt` under pair name `<stem>`; a marked trace
     * missing its mate is an orphan; unmarked traces become labeled
     * self-eval pairs.
     *
     * @throws std::runtime_error on an unreadable or malformed
     *         manifest (duplicate pair names, wrong field count)
     */
    static TracePairing
    pairTraces(const std::vector<std::pair<std::string, std::string>>
                   &discovered,
               const std::string &manifest_path);

  private:
    TraceSuiteOptions options_;
};

} // namespace sim
} // namespace vlp

#endif // VLPSIM_SIM_SUITE_RUNNER_H
