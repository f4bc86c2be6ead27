/**
 * @file
 * Resident, interned copies of verified external traces.
 *
 * Profiling replays an external trace many times: step 1 once per
 * branch class, step 2 once per selection iteration, and the
 * comparison rows once more. Decoding the 18-byte .vbt records and
 * re-running the byte-serial stream checksum on every one of those
 * passes costs far more than the replays themselves, so the ingestion
 * pass (trace/prefetch.h) interns each trace it has verified into a
 * CompactTrace and every later pass replays that copy.
 *
 * A CompactTrace is one table of distinct edges — each distinct
 * (pc, nextPc, taken, kind) record once — plus a dense 32-bit edge id
 * per dynamic record. Real branch streams revisit a small set of
 * edges (a 16-pair corpus of 5.46 M records holds 50,589), so the copy
 * costs about 4 bytes per record, against 18 on disk and 24 decoded.
 * An id names an edge, not a branch: an indirect branch keeps the
 * target of every instance.
 *
 * Every byte a resident external trace holds is charged against one
 * process-wide ResidentBudget (ResidentBudget::process()), shared by
 * every suite run in the process — the CLI's and each of a serve
 * daemon's. A trace whose id array does not fit (the header's record
 * count decides), or whose edge table outgrows what is left, is not
 * kept resident: its reader streams it from the file on every pass
 * instead. Replays are record-for-record identical either way.
 *
 * Generated traces (sim::ExperimentContext::trace()) take the same
 * form through CompactTrace::intern(), which charges no budget: a
 * generated trace has no streaming fallback. The process-wide memo
 * that shares generated traces across contexts (sim::SharedMemo)
 * bounds what it keeps by a byte cap of its own, apart from this
 * budget, so generated traces never take room a resident external
 * trace could use.
 */

#ifndef VLPSIM_TRACE_COMPACT_TRACE_H
#define VLPSIM_TRACE_COMPACT_TRACE_H

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "trace/branch_record.h"
#include "trace/trace_source.h"

namespace vlp {
namespace trace {

/**
 * Bytes all resident traces in one process may hold together. At
 * about 4 bytes per record that keeps some 64 M records resident —
 * a corpus several times the size of the paper's suite — while a
 * long-lived serve daemon running many trace suites at once can never
 * grow past it: traces beyond it stream from their files as before.
 */
constexpr std::uint64_t residentTraceBudgetBytes = 256ull << 20;

/** A byte budget drawn down by resident traces; thread-safe. */
class ResidentBudget
{
  public:
    explicit ResidentBudget(std::uint64_t capacity) : capacity_(capacity)
    {
    }

    ResidentBudget(const ResidentBudget &) = delete;
    ResidentBudget &operator=(const ResidentBudget &) = delete;

    /** Bytes currently charged. */
    std::uint64_t used() const
    {
        return used_.load(std::memory_order_relaxed);
    }

    std::uint64_t capacity() const
    {
        return capacity_.load(std::memory_order_relaxed);
    }

    /** The budget every resident trace in this process draws from;
     *  its capacity is residentTraceBudgetBytes. */
    static ResidentBudget &process();

  private:
    friend class CompactTrace;
    friend class ScopedResidentCapacity;

    /** Charge @p bytes; false (charging nothing) when they do not
     *  fit. */
    bool tryAdd(std::uint64_t bytes);
    void release(std::uint64_t bytes);

    std::atomic<std::uint64_t> capacity_;
    std::atomic<std::uint64_t> used_{0};
};

/** A verified trace held in memory as an edge table plus edge ids. */
class CompactTrace
{
  public:
    using EdgeId = std::uint32_t;

    class Builder;

    /**
     * Intern the records @p source yields from its current position,
     * at most @p limit of them, charging no budget (see the file
     * comment).
     * @throws std::runtime_error past 2^32 - 1 distinct edges
     */
    static std::shared_ptr<const CompactTrace>
    intern(TraceSource &source,
           std::size_t limit = std::numeric_limits<std::size_t>::max());

    /** Returns every byte it holds to its budget. */
    ~CompactTrace() { budget_.release(charged_); }

    CompactTrace(const CompactTrace &) = delete;
    CompactTrace &operator=(const CompactTrace &) = delete;

    /** Distinct records, in order of first appearance. */
    const std::vector<BranchRecord> &edges() const { return edges_; }

    /** One edge id per dynamic record, in trace order. */
    const std::vector<EdgeId> &ids() const { return ids_; }

    /** Dynamic records in the trace. */
    std::size_t size() const { return ids_.size(); }

    /** Bytes held resident and charged to the budget. */
    std::uint64_t residentBytes() const { return charged_; }

  private:
    explicit CompactTrace(ResidentBudget &budget) : budget_(budget) {}

    /** Hold @p bytes more of the budget; false when it cannot. */
    bool charge(std::uint64_t bytes);

    std::vector<BranchRecord> edges_;
    std::vector<EdgeId> ids_;
    ResidentBudget &budget_;
    std::uint64_t charged_ = 0;
};

/**
 * Interns a record stream into a CompactTrace, charging a budget as
 * it grows. Once the budget refuses, the builder gives everything back
 * and ignores further records: the caller streams the trace instead.
 */
class CompactTrace::Builder
{
  public:
    /**
     * Start interning a trace whose header promises @p records
     * records. The id array is charged up front, and again whenever
     * more records arrive; ok() is false when it does not fit.
     */
    Builder(std::uint64_t records, ResidentBudget &budget);

    /** True while the trace is still being kept resident. */
    bool ok() const { return trace_ != nullptr; }

    /** Intern @p record; returns ok(). */
    bool add(const BranchRecord &record);

    /** The interned trace; requires ok(). */
    std::shared_ptr<const CompactTrace> finish();

  private:
    /** Give up: return every charged byte and drop the trace. */
    void abandon();

    /** Double the edge-id hash table (and its charge). */
    bool growSlots();

    /** Append @p id, growing (and charging) the id array when full. */
    bool push(EdgeId id);

    std::unique_ptr<CompactTrace> trace_;
    /** Open-addressing table of edge id + 1 (0 = empty); its bytes
     *  are charged while building and returned by finish(). */
    std::vector<EdgeId> slots_;
    std::uint64_t slotMask_ = 0;
};

/** A replay cursor over a shared CompactTrace. */
class CompactTraceCursor : public TraceSource
{
  public:
    explicit CompactTraceCursor(std::shared_ptr<const CompactTrace> trace)
        : trace_(std::move(trace)), edges_(trace_->edges().data()),
          ids_(trace_->ids().data()), size_(trace_->size())
    {
    }

    bool
    next(BranchRecord &record) override
    {
        if (position_ >= size_)
            return false;
        record = edges_[ids_[position_++]];
        return true;
    }

    void reset() override { position_ = 0; }

    /** The trace this cursor replays. */
    const CompactTrace &trace() const { return *trace_; }

  private:
    std::shared_ptr<const CompactTrace> trace_;
    const BranchRecord *edges_;
    const CompactTrace::EdgeId *ids_;
    std::size_t size_;
    std::size_t position_ = 0;
};

/**
 * Test seam: sets the process budget's capacity for its lifetime and
 * restores it afterwards. Tests force every trace onto the parked
 * session path with it and lock that a trace over the budget reports
 * byte for byte what a resident one does. Not an option; nothing
 * outside tests uses it.
 */
class ScopedResidentCapacity
{
  public:
    explicit ScopedResidentCapacity(std::uint64_t capacity);
    ~ScopedResidentCapacity();

    ScopedResidentCapacity(const ScopedResidentCapacity &) = delete;
    ScopedResidentCapacity &
    operator=(const ScopedResidentCapacity &) = delete;

  private:
    std::uint64_t saved_;
};

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_COMPACT_TRACE_H
