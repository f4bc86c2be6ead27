/**
 * @file
 * Internal to core and sim: the record feeds and dense per-branch
 * slots behind the profiler's loops and the comparison replay.
 *
 * Step 1 (the sweep), step 2 (Profiler::runStep2()) and the comparison
 * replay (sim::replayComparison()) each replay a whole trace through
 * path predictors in one monomorphic loop: records arrive as spans, not
 * through a virtual TraceSource::next() per record, and the class
 * policy below supplies the table and the record filter at compile
 * time.
 *
 * In step 2 and the comparison replay the only per-branch state is the
 * assigned path length and, in step 2, the miss count. It lives in
 * dense slots instead of pc hash maps. A resident trace::CompactTrace
 * gets one slot per edge, so the loop indexes its per-slot tables by
 * the record's edge id and never looks anything up; which branch owns
 * each edge is worked out once per feed. Any other source
 * (a generated VectorTraceSource, a streamed .vbt reader) gets one slot
 * per branch plus one shared by every other pc, found by one flat probe
 * per profiled record.
 */

#ifndef VLPSIM_CORE_REPLAY_FEED_H
#define VLPSIM_CORE_REPLAY_FEED_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/hash_assignment.h"
#include "core/profiler.h"
#include "predictors/predictor.h"
#include "trace/compact_trace.h"
#include "trace/trace_source.h"
#include "util/packed_counter_table.h"

namespace vlp {
namespace core {
namespace detail {

/**
 * A trace's records as spans: an in-memory trace as one span, a
 * resident trace expanded chunk by chunk from its edge ids, any other
 * source through a bounded buffer filled from next().
 */
class RecordFeed
{
  public:
    explicit RecordFeed(const std::vector<trace::BranchRecord> &records)
        : whole_(records)
    {
    }

    explicit RecordFeed(const trace::CompactTrace &compact)
        : compact_(&compact), buffer_(chunkRecords)
    {
    }

    explicit RecordFeed(trace::TraceSource &source)
        : source_(&source), buffer_(chunkRecords)
    {
    }

    /** The next span of records; empty at the end of the trace. */
    std::span<const trace::BranchRecord>
    next()
    {
        if (compact_ != nullptr) {
            // Expand the next chunk of edge ids straight into the
            // buffer: no virtual call per record.
            const trace::BranchRecord *edges = compact_->edges().data();
            const trace::CompactTrace::EdgeId *ids =
                compact_->ids().data() + position_;
            const std::size_t count =
                std::min(buffer_.size(), compact_->size() - position_);
            for (std::size_t i = 0; i < count; ++i)
                buffer_[i] = edges[ids[i]];
            position_ += count;
            return {buffer_.data(), count};
        }
        if (source_ == nullptr)
            return std::exchange(whole_, {});
        std::size_t count = 0;
        while (count < buffer_.size() && source_->next(buffer_[count]))
            ++count;
        return {buffer_.data(), count};
    }

  private:
    static constexpr std::size_t chunkRecords = 4096;

    std::span<const trace::BranchRecord> whole_;
    const trace::CompactTrace *compact_ = nullptr;
    std::size_t position_ = 0;
    trace::TraceSource *source_ = nullptr;
    std::vector<trace::BranchRecord> buffer_;
};

/*
 * ---- Per-class policy -----------------------------------------------
 *
 * What the loops do differently for the two branch classes: the record
 * filter (profiled()) and one path predictor table with a fused
 * predict-then-train access(). The loops are templates over a policy,
 * and withClass() picks the policy once per pass, so the per-record
 * loops stay monomorphic.
 */

/** Conditional branches: 2-bit counters. */
struct ConditionalClass
{
    using Table = util::PackedCounterTable;

    static bool
    profiled(const trace::BranchRecord &record)
    {
        return record.isConditional();
    }

    /** A table of 2^@p index_bits counters, weakly not taken. */
    static Table
    table(unsigned index_bits)
    {
        return Table(std::size_t{1} << index_bits, 2);
    }

    /** Predict, then train, counter @p index: true on a hit. */
    static bool
    access(Table &table, std::size_t index,
           const trace::BranchRecord &record)
    {
        return table.predictThenUpdate(index, record.taken)
            == record.taken;
    }
};

/** Indirect branches (jumps and calls): 32-bit target registers. */
struct IndirectClass
{
    using Table = std::vector<std::uint32_t>;

    static bool
    profiled(const trace::BranchRecord &record)
    {
        return record.isIndirect();
    }

    /** A table of 2^@p index_bits zeroed target registers. */
    static Table
    table(unsigned index_bits)
    {
        return Table(std::size_t{1} << index_bits, 0);
    }

    /** Predict, then overwrite, target register @p index. */
    static bool
    access(Table &table, std::size_t index,
           const trace::BranchRecord &record)
    {
        std::uint32_t &target = table[index];
        const bool hit =
            pred::widenTarget(target, record.pc) == record.nextPc;
        target = static_cast<std::uint32_t>(record.nextPc);
        return hit;
    }
};

/** body(policy) with the policy of the class @p indirect selects. */
template <typename Body>
decltype(auto)
withClass(bool indirect, Body &&body)
{
    if (indirect)
        return body(IndirectClass{});
    return body(ConditionalClass{});
}

/**
 * A flat open-addressing map from a fixed set of pcs to their dense
 * index: one multiply and, almost always, one probe per lookup.
 */
class BranchSlots
{
  public:
    /** @param pcs distinct branch addresses; pcs[i] maps to i */
    explicit BranchSlots(std::span<const std::uint64_t> pcs);

    /** @p pc's index in the constructor's list, or the list's size
     *  when it is not there. */
    std::uint32_t
    find(std::uint64_t pc) const
    {
        // Empty entries hold the missing index, so an absent pc ends
        // on one and returns it.
        std::size_t i = hash(pc);
        while (entries_[i].slot != missing_ && entries_[i].pc != pc)
            i = (i + 1) & mask_;
        return entries_[i].slot;
    }

  private:
    struct Entry
    {
        std::uint64_t pc;
        std::uint32_t slot;
    };

    std::size_t
    hash(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(
            ((pc >> 2) * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    std::vector<Entry> entries_;
    std::size_t mask_;
    unsigned shift_;
    std::uint32_t missing_;
};

/**
 * A trace replayed whole, any number of times, with dense slots for a
 * fixed list of branches (see the file comment). A slot belongs to one
 * branch, or to none: branchOf() gives its index in branches(), or
 * branches().size() for a pc outside the list. Callers keep their
 * per-slot state in plain vectors of slotCount() entries.
 */
class ReplayFeed
{
  public:
    /**
     * @param source   the trace; borrowed, and replayed from its start
     *                 (every replay resets it)
     * @param branches distinct branch addresses that own state
     */
    ReplayFeed(trace::TraceSource &source,
               std::vector<std::uint64_t> branches);

    /** The branches that own slots. */
    const std::vector<std::uint64_t> &branches() const { return branches_; }

    /** Slots in this feed: one per edge of a resident trace, else one
     *  per branch plus the shared one. */
    std::size_t slotCount() const { return branchOf_.size(); }

    /** The branch owning slot @p slot (see the class comment). */
    std::uint32_t branchOf(std::size_t slot) const { return branchOf_[slot]; }

    /**
     * Replay the whole trace: profiled(record, slot) for each record
     * @p Class profiles, then every(record) for every record.
     */
    template <typename Class, typename Profiled, typename Every>
    [[gnu::always_inline]] void
    replay(Profiled &&profiled, Every &&every)
    {
        if (compact_ != nullptr) {
            // The edge id is the slot.
            const trace::BranchRecord *edges = compact_->edges().data();
            for (const trace::CompactTrace::EdgeId id : compact_->ids()) {
                const trace::BranchRecord &record = edges[id];
                if (Class::profiled(record))
                    profiled(record, id);
                every(record);
            }
            return;
        }
        if (source_ != nullptr)
            source_->reset();
        RecordFeed feed = records_ != nullptr ? RecordFeed(*records_)
                                              : RecordFeed(*source_);
        for (auto records = feed.next(); !records.empty();
             records = feed.next()) {
            for (const trace::BranchRecord &record : records) {
                if (Class::profiled(record))
                    profiled(record, slots_.find(record.pc));
                every(record);
            }
        }
    }

  private:
    std::vector<std::uint64_t> branches_;
    BranchSlots slots_;
    std::vector<std::uint32_t> branchOf_;
    const trace::CompactTrace *compact_ = nullptr;
    const std::vector<trace::BranchRecord> *records_ = nullptr;
    trace::TraceSource *source_ = nullptr;
};

/**
 * Per-slot path lengths of @p assignment, clamped to @p depth as the
 * path predictors clamp them.
 */
std::vector<std::uint8_t> slotLengths(const ReplayFeed &feed,
                                      const HashAssignment &assignment,
                                      unsigned depth);

/**
 * Step 2's passes over one profile trace: the replay feed is built
 * once, and each pass() is one iteration's variable length path
 * predictor. Profiler::runStep2() drives it; exposed for the replay
 * oracle.
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
                std::vector<std::uint64_t> branches);

    /**
     * Replay the trace with per-branch lengths from @p tested: the
     * misses per branch of the list, each branch with at least one
     * (a pc outside the list is predicted with the default length
     * and its misses are not reported).
     */
    std::unordered_map<std::uint64_t, std::uint64_t>
    pass(const HashAssignment &tested);

  private:
    ReplayFeed feed_;
    ProfileOptions options_;
    bool indirect_;
};

} // namespace detail
} // namespace core
} // namespace vlp

#endif // VLPSIM_CORE_REPLAY_FEED_H
