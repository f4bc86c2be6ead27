/**
 * @file
 * The paper's profiling heuristic (Section 3.5) and fixed-length
 * sweeps.
 *
 * Step 1 simulates N fixed length path predictors — one per hash
 * function, each with a private predictor table but all sharing one
 * THB — on the profile input, recording per static branch how many
 * times each predictor was correct. The top C (default 3) hash numbers
 * per branch become its candidates.
 *
 * Step 2 simulates one variable length path predictor (N hash
 * functions, one shared table) for a fixed number of iterations
 * (default 7). Each iteration selects, per branch, the candidate with
 * the fewest recorded mispredictions so far — untested candidates
 * count as zero so they are tried first — and then records the chosen
 * candidate's actual misprediction count. The final assignment takes,
 * per branch, the candidate with the fewest recorded mispredictions.
 * Step 2 exists to reduce the branch interference that appears when
 * all hash functions share one table.
 *
 * Branches not exercised during profiling get the default number: the
 * hash function with the highest overall accuracy on the profiled
 * branches. The same sweep machinery also yields the global fixed
 * length (Table 2) and the per-benchmark "tuned" fixed length of
 * Figures 9 and 10.
 *
 * One Profiler runs both steps for either branch class. The classes
 * differ only in the table entry (2-bit counter or 32-bit target
 * register, each with its hit test) and the record filter, which a
 * per-class policy in core/replay_feed.h supplies.
 */

#ifndef VLPSIM_CORE_PROFILER_H
#define VLPSIM_CORE_PROFILER_H

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/hash_assignment.h"
#include "core/path_history.h"
#include "trace/trace_source.h"

namespace vlp {
namespace core {

/**
 * Profiling parameters.
 *
 * Validated when a profiler is constructed: a zero or descending
 * length range (minLength == 0, or minLength > maxLength) is rejected
 * with an error instead of silently producing an empty sweep, and
 * indexBits must be 1..30 so the per-length tables stay allocatable.
 */
struct ProfileOptions
{
    /** Predictor-table index width k (1..30). */
    unsigned indexBits = 14;
    /** Shortest path length swept in step 1 (>= 1). */
    unsigned minLength = 1;
    /** Number of hash functions N (minLength..32). */
    unsigned maxLength = maxPathLength;
    /** Candidates kept per static branch after step 1. */
    unsigned candidates = 3;
    /** Step-2 iterations (must be >= 1; the paper uses 7). */
    unsigned iterations = 7;
    /** Path history construction options (depth is forced to
     *  maxLength). */
    PathHistoryOptions history = {};
};

/**
 * Result of simulating the fixed-length predictors for every path
 * length in [minLength, maxLength] over a trace.
 */
struct FixedLengthSweep
{
    /** mispredictions[L-1]: total mispredictions at path length L.
     *  Entries below minLength were not simulated and stay zero. */
    std::vector<std::uint64_t> mispredictions;
    /** Dynamic branches of the profiled class seen. */
    std::uint64_t branches = 0;
    /** First path length actually swept. */
    unsigned minLength = 1;

    /** Misprediction rate (%) at path length @p length (must be in
     *  [minLength, mispredictions.size()]). */
    double rate(unsigned length) const;

    /** Swept path length with the fewest mispredictions (ties:
     *  shortest). */
    unsigned bestLength() const;
};

/** Per-static-branch step-1 profile record. */
struct BranchProfile
{
    /** Counter ceiling: counts stick here instead of wrapping. */
    static constexpr std::uint32_t saturated = ~std::uint32_t{0};

    /** correct[L-1]: correct predictions at path length L. */
    std::array<std::uint32_t, maxPathLength> correct{};
    /** Dynamic executions seen while profiling (saturating). */
    std::uint32_t executions = 0;

    /**
     * Count one execution, saturating at the ceiling so very long
     * profile traces cannot wrap the counter and scramble candidate
     * ranking.
     */
    void
    addExecution()
    {
        executions += executions != saturated;
    }

    /** Count one correct prediction at path length @p length,
     *  saturating. */
    void
    addCorrect(unsigned length)
    {
        std::uint32_t &count = correct[length - 1];
        count += count != saturated;
    }
};

/**
 * Profiles one branch class and produces a HashAssignment: conditional
 * branches (2-bit counter tables, taken/not-taken outcomes) or
 * indirect branches (jumps and calls, returns excluded; 32-bit target
 * tables). The class is fixed at construction and dispatched once per
 * step, so the per-record loops stay specialized to it.
 */
class Profiler
{
  public:
    /**
     * @param indirect profile indirect branches instead of
     *                 conditional ones
     */
    Profiler(ProfileOptions options, bool indirect);

    /**
     * Step 1: simulate the N fixed-length predictors in one pass over
     * @p profile_trace (one path history, one packed table per
     * length), populating the per-branch records and the aggregate
     * sweep (also retrievable later via step1Sweep()).
     */
    const FixedLengthSweep &runStep1(trace::TraceSource &profile_trace);

    /**
     * Step 2: iterate candidate selection. Requires runStep1() first.
     * @return the final per-branch assignment
     */
    HashAssignment runStep2(trace::TraceSource &profile_trace);

    /**
     * Run both steps over @p profile_trace (reset before each pass)
     * and return the per-branch hash-number assignment.
     */
    HashAssignment profile(trace::TraceSource &profile_trace);

    /** Aggregate sweep from the last runStep1(). */
    const FixedLengthSweep &step1Sweep() const { return sweep_; }

    /** Per-branch step-1 records from the last runStep1(). */
    const std::unordered_map<std::uint64_t, BranchProfile> &
    branchProfiles() const
    {
        return profiles_;
    }

    /**
     * Adopt step-1 results computed earlier (e.g. loaded from the
     * artifact store) instead of running runStep1(). The sweep must
     * match this profiler's configured length range.
     */
    void restoreStep1(
        FixedLengthSweep sweep,
        std::unordered_map<std::uint64_t, BranchProfile> profiles);

    /** The options this profiler was constructed with. */
    const ProfileOptions &options() const { return options_; }

    /** Whether this profiler profiles indirect branches. */
    bool indirect() const { return indirect_; }

  private:
    ProfileOptions options_;
    bool indirect_;
    std::unordered_map<std::uint64_t, BranchProfile> profiles_;
    FixedLengthSweep sweep_;
    bool step1Done_ = false;
};

/** Profiler(options, false); kept for perfbench/src until the replica
 *  is re-mirrored. */
class ConditionalProfiler : public Profiler
{
  public:
    explicit ConditionalProfiler(ProfileOptions options)
        : Profiler(options, false)
    {
    }
};

/** Profiler(options, true); kept for perfbench/src until the replica
 *  is re-mirrored. */
class IndirectProfiler : public Profiler
{
  public:
    explicit IndirectProfiler(ProfileOptions options)
        : Profiler(options, true)
    {
    }
};

/**
 * Step 2's bookkeeping: turn step-1 per-branch records into candidate
 * lists, pick each iteration's per-branch lengths, record their
 * per-branch results, and assemble the final assignment.
 *
 * Every per-branch vector it takes or returns is in the order of
 * branches(), which is also the branch order of the detail::Step2Replay
 * feed Profiler::runStep2() builds, so an iteration involves no pc
 * lookup. Exposed for white-box testing; regular users call
 * Profiler::profile().
 */
class CandidateSelector
{
  public:
    /**
     * @param profiles   step-1 per-branch records
     * @param sweep      step-1 aggregate (defines the default length)
     * @param candidates candidates kept per branch
     * @param max_length number of hash functions N
     */
    CandidateSelector(
        const std::unordered_map<std::uint64_t, BranchProfile> &profiles,
        const FixedLengthSweep &sweep, unsigned candidates,
        unsigned max_length);

    /** The profiled branches, in the order of every per-branch
     *  vector. */
    const std::vector<std::uint64_t> &branches() const { return branches_; }

    /**
     * The lengths to test in the next step-2 iteration: per branch the
     * candidate with the fewest recorded mispredictions, untested
     * candidates first, then one more entry, the default length, for
     * every other pc. The selector remembers each branch's choice for
     * recordResults().
     */
    const std::vector<std::uint8_t> &nextLengths();

    /**
     * Record the per-branch misprediction counts (one per branch)
     * observed with the lengths the last nextLengths() chose; before
     * the first call, each branch's first candidate.
     * @throws std::runtime_error if the count of entries is not
     *         branches().size()
     */
    void recordResults(std::span<const std::uint64_t> mispredictions);

    /** Final assignment after all iterations. */
    HashAssignment finalAssignment() const;

    /** Default (global best) hash number. */
    unsigned defaultLength() const { return defaultLength_; }

  private:
    static constexpr std::uint64_t untested =
        ~std::uint64_t{0};

    /** Index of the candidate nextLengths() picks for branch
     *  @p branch. */
    std::size_t chooseCandidate(std::size_t branch) const;

    /** Candidates per branch. */
    unsigned keep_;
    unsigned defaultLength_;
    std::vector<std::uint64_t> branches_;
    /** keep_ candidate hash numbers per branch, best step-1 accuracy
     *  first. */
    std::vector<std::uint8_t> candidates_;
    /** Recorded mispredictions per candidate (untested marker). */
    std::vector<std::uint64_t> recorded_;
    /** Each branch's candidate in the last nextLengths(). */
    std::vector<std::uint8_t> chosen_;
    /** nextLengths()'s result. */
    std::vector<std::uint8_t> lengths_;
};

} // namespace core
} // namespace vlp

#endif // VLPSIM_CORE_PROFILER_H
