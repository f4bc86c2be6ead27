/**
 * @file
 * Abstract branch-trace sources and the in-memory trace.
 *
 * Simulators and profilers consume traces through the TraceSource
 * interface so that a synthetic workload, an in-memory vector, or a
 * trace file on disk are interchangeable.
 */

#ifndef VLPSIM_TRACE_TRACE_SOURCE_H
#define VLPSIM_TRACE_TRACE_SOURCE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "trace/branch_record.h"

namespace vlp {
namespace trace {

/**
 * A resettable, forward-only stream of branch records.
 *
 * The profiling pipeline replays the same trace many times (once per
 * candidate fixed-length predictor, then once per selection iteration),
 * so every source must support reset().
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Fetch the next record.
     * @param record filled in on success
     * @retval true a record was produced
     * @retval false the trace is exhausted
     */
    virtual bool next(BranchRecord &record) = 0;

    /** Rewind to the beginning of the trace. */
    virtual void reset() = 0;
};

/**
 * A trace held entirely in memory, as plain records: what the workload
 * engine and the file loaders produce. Replays that run many times
 * (the experiment memo) intern it into a trace::CompactTrace instead.
 */
class VectorTraceSource : public TraceSource
{
  public:
    using Records = std::vector<BranchRecord>;

    VectorTraceSource() = default;

    /** Construct over an existing record vector (takes ownership). */
    explicit VectorTraceSource(Records records)
        : records_(std::move(records))
    {}

    bool
    next(BranchRecord &record) override
    {
        if (position_ >= records_.size())
            return false;
        record = records_[position_++];
        return true;
    }

    void reset() override { position_ = 0; }

    /** Append a record (used while building a trace). */
    void append(const BranchRecord &record) { records_.push_back(record); }

    /** Number of records in the trace. */
    std::size_t size() const { return records_.size(); }

    /** Direct access to the underlying records. */
    const Records &records() const { return records_; }

  private:
    Records records_;
    std::size_t position_ = 0;
};

/**
 * A [skip, skip+take) window over another source, counted in records.
 * Useful to drop warmup or to simulate a sample of a long trace.
 */
class WindowTraceSource : public TraceSource
{
  public:
    /**
     * @param inner source to window (borrowed; must outlive this)
     * @param skip  records to discard from the start
     * @param take  records to pass through (0 = unlimited)
     */
    WindowTraceSource(TraceSource &inner, std::uint64_t skip,
                      std::uint64_t take = 0)
        : inner_(inner), skip_(skip), take_(take)
    {
    }

    bool
    next(BranchRecord &record) override
    {
        if (!skipped_) {
            BranchRecord discard;
            std::uint64_t skipped = 0;
            while (skipped < skip_ && inner_.next(discard))
                ++skipped;
            skipped_ = true;
        }
        if (take_ != 0 && delivered_ >= take_)
            return false;
        if (!inner_.next(record))
            return false;
        ++delivered_;
        return true;
    }

    void
    reset() override
    {
        inner_.reset();
        skipped_ = false;
        delivered_ = 0;
    }

  private:
    TraceSource &inner_;
    std::uint64_t skip_;
    std::uint64_t take_;
    std::uint64_t delivered_ = 0;
    bool skipped_ = false;
};

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_TRACE_SOURCE_H
