/**
 * @file
 * Replay feed and dense branch slots.
 */

#include "core/replay_feed.h"

#include <bit>

namespace vlp {
namespace core {
namespace detail {

BranchSlots::BranchSlots(std::span<const std::uint64_t> pcs)
    : missing_(static_cast<std::uint32_t>(pcs.size()))
{
    // At most half full, so a probe run stays short and always ends on
    // an empty entry.
    const std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(2 * pcs.size(), 2));
    entries_.assign(capacity, Entry{0, missing_});
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (std::uint32_t slot = 0; slot < pcs.size(); ++slot) {
        std::size_t i = hash(pcs[slot]);
        while (entries_[i].slot != missing_)
            i = (i + 1) & mask_;
        entries_[i] = {pcs[slot], slot};
    }
}

ReplayFeed::ReplayFeed(trace::TraceSource &source,
                       std::vector<std::uint64_t> branches)
    : branches_(std::move(branches)), slots_(branches_)
{
    if (const auto *vector =
            dynamic_cast<const trace::VectorTraceSource *>(&source)) {
        records_ = &vector->records();
    } else if (const auto *cursor =
                   dynamic_cast<const trace::CompactTraceCursor *>(
                       &source)) {
        compact_ = &cursor->trace();
        branchOf_.reserve(compact_->edges().size());
        for (const trace::BranchRecord &edge : compact_->edges())
            branchOf_.push_back(slots_.find(edge.pc));
        return;
    } else {
        source_ = &source;
    }
    branchOf_.resize(branches_.size() + 1);
    for (std::uint32_t slot = 0; slot < branchOf_.size(); ++slot)
        branchOf_[slot] = slot;
}

std::vector<std::uint8_t>
slotLengths(const ReplayFeed &feed, const HashAssignment &assignment,
            unsigned depth)
{
    const std::vector<std::uint64_t> &branches = feed.branches();
    std::vector<std::uint8_t> byBranch(branches.size() + 1);
    for (std::size_t b = 0; b < branches.size(); ++b)
        byBranch[b] = static_cast<std::uint8_t>(
            std::min(assignment.lookup(branches[b]), depth));
    byBranch.back() = static_cast<std::uint8_t>(
        std::min(assignment.defaultLength(), depth));

    std::vector<std::uint8_t> lengths(feed.slotCount());
    for (std::size_t slot = 0; slot < lengths.size(); ++slot)
        lengths[slot] = byBranch[feed.branchOf(slot)];
    return lengths;
}

} // namespace detail
} // namespace core
} // namespace vlp
