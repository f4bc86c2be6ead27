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
#include <memory>
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
 * A trace held entirely in memory. This is the workhorse source: the
 * workload engine materializes its branch stream into one of these,
 * which is then replayed across all predictors and profiling passes.
 *
 * The records live behind a shared_ptr, so a copy (or a source built
 * from shared()) is a second cursor over the same records, never a
 * copy of them: each cursor keeps its own position, so several threads
 * can replay one trace at once. append() detaches a shared source
 * first (copy on write), so building never disturbs another cursor.
 */
class VectorTraceSource : public TraceSource
{
  public:
    using Records = std::vector<BranchRecord>;

    VectorTraceSource()
    {
        auto records = std::make_shared<Records>();
        writable_ = records.get();
        records_ = std::move(records);
    }

    /** Construct over an existing record vector (takes ownership). */
    explicit VectorTraceSource(Records records)
    {
        auto owned = std::make_shared<Records>(std::move(records));
        writable_ = owned.get();
        records_ = std::move(owned);
    }

    /** A cursor over records shared with other sources. */
    explicit VectorTraceSource(std::shared_ptr<const Records> records)
        : records_(std::move(records))
    {}

    bool
    next(BranchRecord &record) override
    {
        if (position_ >= records_->size())
            return false;
        record = (*records_)[position_++];
        return true;
    }

    void reset() override { position_ = 0; }

    /** Append a record (used while building a trace). */
    void
    append(const BranchRecord &record)
    {
        if (writable_ == nullptr || records_.use_count() != 1) {
            auto copy = std::make_shared<Records>(*records_);
            writable_ = copy.get();
            records_ = std::move(copy);
        }
        writable_->push_back(record);
    }

    /** Number of records in the trace. */
    std::size_t size() const { return records_->size(); }

    /** Direct access to the underlying records. */
    const Records &records() const { return *records_; }

    /** The records, for building further cursors over them. */
    const std::shared_ptr<const Records> &shared() const
    {
        return records_;
    }

  private:
    std::shared_ptr<const Records> records_;
    /** records_ when a source of this lineage allocated it, else
     *  null; append() writes through it only while unshared. */
    Records *writable_ = nullptr;
    std::size_t position_ = 0;
};

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_TRACE_SOURCE_H
