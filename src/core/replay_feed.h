/**
 * @file
 * Internal to core and sim: the edge-id feed behind the profiler's
 * loops and the comparison replay.
 *
 * Step 1 (the sweep), step 2 (Profiler::runStep2()) and the comparison
 * replay (sim::replayComparison()) each replay a whole trace through
 * path predictors in one monomorphic loop per chunk of records, and
 * the class policy (core/branch_class.h) supplies the table and the
 * record filter at compile time.
 *
 * Every one of them reads the trace through an EdgeFeed, in chunks of
 * three arrays: an edge table (each distinct record once, in order of
 * first appearance), the chunk's records as ids into that table, and
 * one caller-chosen slot per edge. The caller's slot function runs
 * once per distinct edge, outside the record loop, so a loop keeps its
 * per-branch state in plain vectors and reaches it from the record's
 * edge id without a pc lookup. A resident trace::CompactTrace is one
 * chunk, its slots worked out once per feed; generated traces are
 * resident too (sim::ExperimentContext::trace() interns them). Any
 * other source (a streamed .vbt reader, a VectorTraceSource handed
 * straight to the profiler) is read 4096 records at a time, each chunk
 * interned into a table of its own by CompactTrace::intern(), so
 * memory stays bounded.
 */

#ifndef VLPSIM_CORE_REPLAY_FEED_H
#define VLPSIM_CORE_REPLAY_FEED_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/profiler.h"
#include "trace/compact_trace.h"
#include "trace/trace_source.h"

namespace vlp {
namespace core {
namespace detail {

/** A chunk of records: see the file comment. */
struct EdgeChunk
{
    /** Distinct records, in order of first appearance. */
    std::span<const trace::BranchRecord> edges;
    /** The chunk's records, in trace order, as indices into edges. */
    std::span<const trace::CompactTrace::EdgeId> ids;
    /** slots[e]: the caller's slot for edges[e]. */
    std::span<const std::uint32_t> slots;
};

/** A trace replayed whole, any number of times, as edge chunks. */
class EdgeFeed
{
  public:
    /** The slot of a distinct edge. */
    using SlotOf = std::function<std::uint32_t(const trace::BranchRecord &)>;

    /**
     * @param source  the trace; borrowed, and replayed from its start
     * @param slot_of called for each edge in order of first
     *                appearance: once per edge of a resident trace,
     *                when the feed is built, or once per edge of each
     *                streamed chunk
     */
    EdgeFeed(trace::TraceSource &source, SlotOf slot_of);

    /**
     * The next chunk of the current pass. A chunk with no ids ends the
     * pass; the call after it starts the next pass from the trace's
     * start.
     */
    EdgeChunk next();

  private:
    /** Fill slots_ for @p trace's edges. */
    void assignSlots(const trace::CompactTrace &trace);

    trace::TraceSource &source_;
    SlotOf slotOf_;
    /** The resident trace, or null when the source streams. */
    const trace::CompactTrace *resident_ = nullptr;
    /** The streamed chunk in hand. */
    std::shared_ptr<const trace::CompactTrace> chunk_;
    std::vector<std::uint32_t> slots_;
    bool inPass_ = false;
};

/**
 * Step 2's passes over one profile trace: the edge feed is built once,
 * with each edge's slot the index of its pc in the branch list (or the
 * list's size for every other pc), and each pass() is one iteration's
 * variable length path predictor. Profiler::runStep2() drives it;
 * exposed for the replay oracle.
 */
class Step2Replay
{
  public:
    /**
     * @param profile_trace the profile trace (borrowed)
     * @param branches      the profiled branches (step 1's pcs)
     */
    Step2Replay(trace::TraceSource &profile_trace,
                const ProfileOptions &options, bool indirect,
                const std::vector<std::uint64_t> &branches);

    /**
     * Replay the trace with @p lengths (one per branch of the list,
     * then one for every other pc, each in [1, maxLength]): the misses
     * per branch of the list, in its order (the other pcs' misses are
     * not reported).
     */
    std::vector<std::uint64_t> pass(std::span<const std::uint8_t> lengths);

  private:
    EdgeFeed feed_;
    std::size_t branchCount_;
    ProfileOptions options_;
    bool indirect_;
};

} // namespace detail
} // namespace core
} // namespace vlp

#endif // VLPSIM_CORE_REPLAY_FEED_H
