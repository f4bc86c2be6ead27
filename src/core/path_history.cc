/**
 * @file
 * PathIndexBank implementation.
 */

#include "core/path_history.h"

#include <bit>
#include <cassert>

#include "util/bits.h"
#include "util/logging.h"

namespace vlp {
namespace core {

PathIndexBank::PathIndexBank(unsigned index_bits,
                             PathHistoryOptions options)
    : indexBits_(index_bits), options_(options)
{
    if (index_bits < 1 || index_bits > 32)
        util::fatal("path index width must be 1..32 bits");
    if (options_.depth < 1 || options_.depth > maxPathLength)
        util::fatal("THB depth must be 1..32");
    // depth + 1 slots: the current sum plus the depth past sums the
    // index() reconstruction reaches back to.
    const unsigned capacity = std::bit_ceil(options_.depth + 1);
    thbMask_ = capacity - 1;
    thb_.assign(capacity, 0);
    sums_.assign(2 * capacity, 0); // mirrored; see sums_
    indexMask_ = util::mask(indexBits_);
    rotAmounts_.resize(options_.depth);
    for (unsigned length = 1; length <= options_.depth; ++length)
        rotAmounts_[length - 1] =
            options_.rotateTargets ? length % indexBits_ : 0;
}

bool
PathIndexBank::observeCallReturn(const trace::BranchRecord &record)
{
    if (record.isCall()) {
        // Save the caller's history; the indirect-call target (if
        // any) is inserted by observe() *after* the snapshot, so the
        // callee still sees which call site it came from.
        if (snapshots_.size() >= options_.historyStackDepth)
            snapshots_.erase(snapshots_.begin());
        snapshots_.push_back(
            Snapshot{thb_, sums_, pathSum_, head_, occupancy_});
    } else if (record.isReturn() && !snapshots_.empty()) {
        Snapshot &saved = snapshots_.back();
        thb_ = std::move(saved.thb);
        sums_ = std::move(saved.sums);
        pathSum_ = saved.pathSum;
        head_ = saved.head;
        occupancy_ = saved.occupancy;
        snapshots_.pop_back();
        return true;
    }
    return false;
}

std::uint64_t
PathIndexBank::directIndex(unsigned length) const
{
    assert(length >= 1 && length <= options_.depth);
    std::uint64_t result = 0;
    for (unsigned i = 0; i < length; ++i) {
        const std::uint64_t entry = thb_[(head_ + i) & thbMask_];
        result ^= options_.rotateTargets
            ? util::rotl(entry, i, indexBits_)
            : entry;
    }
    return result;
}

std::uint64_t
PathIndexBank::target(unsigned i) const
{
    assert(i >= 1 && i <= options_.depth);
    return thb_[(head_ + i - 1) & thbMask_];
}

void
PathIndexBank::clear()
{
    thb_.assign(thb_.size(), 0);
    sums_.assign(sums_.size(), 0);
    pathSum_ = 0;
    head_ = 0;
    occupancy_ = 0;
    snapshots_.clear();
}

std::size_t
PathIndexBank::historyBytes() const
{
    // N k-bit targets plus N k-bit partial-sum registers.
    return (2 * options_.depth * indexBits_ + 7) / 8;
}

} // namespace core
} // namespace vlp
