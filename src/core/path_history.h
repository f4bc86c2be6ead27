/**
 * @file
 * The Target History Buffer (THB) and the incremental hash-index bank —
 * the first-level history of the paper's path predictors (Sections 3.1
 * through 3.3 and 4.1).
 *
 * The THB records the k-bit-compressed executed destinations of the
 * most recent history-eligible branches (conditional and indirect; not
 * unconditional; returns optional and off by default, as in the paper's
 * experiments). For every path length X in 1..N, hash function HF_X
 * XORs the X most recent compressed targets, each target T_i rotated
 * left by i-1 bits as a k-bit number, producing index I_X.
 *
 * Evaluating HF_X from scratch needs X rotators and an XOR tree; the
 * paper's hardware solution (Section 4.1) keeps a "partial sum"
 * register per hash function and updates all of them with a single
 * rotate-by-one and XOR per inserted target:
 *
 *     I_X(new) = rotl(I_{X-1}(old), 1) XOR T_new
 *
 * PathIndexBank computes the same values with O(1) work per insert
 * instead of O(N): because rotation distributes over XOR, the single
 * running sum
 *
 *     S_t = rotl(S_{t-1}, 1) XOR T_t
 *
 * satisfies I_X(t) = S_t XOR rotl(S_{t-X}, X), so one register plus a
 * ring of the last N sums replaces the N-register update (the
 * hardware still pays N registers — historyBytes() is unchanged).
 * The sum ring is stored twice back to back (mirrored), so S_{t-X}
 * for any run of consecutive X is one contiguous read that never
 * wraps. directIndex() recomputes an index from the buffered targets
 * the slow way so tests can prove the representations always agree.
 */

#ifndef VLPSIM_CORE_PATH_HISTORY_H
#define VLPSIM_CORE_PATH_HISTORY_H

#include <cassert>
#include <cstdint>
#include <vector>

#include "trace/branch_record.h"
#include "util/bits.h"

namespace vlp {
namespace core {

/** Maximum THB depth / number of hash functions (as in the paper). */
constexpr unsigned maxPathLength = 32;

/** Options controlling path-history construction. */
struct PathHistoryOptions
{
    /** THB depth N / number of hash functions implemented. */
    unsigned depth = maxPathLength;
    /**
     * Rotate T_i by i-1 bits before XORing (Section 3.3). Turning
     * this off loses the ordering information — an ablation knob.
     */
    bool rotateTargets = true;
    /** Also insert return targets (Section 3.2 ablation; paper: no). */
    bool includeReturns = false;
    /**
     * The paper's Section 6 extension idea (after Jacobson et al.):
     * snapshot the history on every subroutine call and restore it on
     * the matching return, so branches after a call see the same path
     * regardless of what the callee did. Off in the paper's
     * experiments; measured by bench_ablation.
     */
    bool historyStack = false;
    /** Snapshot stack depth when historyStack is on. */
    unsigned historyStackDepth = 64;
};

/**
 * THB plus the bank of N incrementally-maintained hash indices, all
 * compressed to @c indexBits() bits.
 */
class PathIndexBank
{
  public:
    /**
     * @param index_bits k: predictor-table index width the targets are
     *        compressed to
     * @param options    history construction options
     */
    explicit PathIndexBank(unsigned index_bits,
                           PathHistoryOptions options = {});

    /**
     * Compress a target address to k bits by discarding high-order
     * bits (after dropping the always-zero word-alignment bits):
     * "we compressed the target addresses by simply discarding the
     * higher order bits" (Section 3.1).
     */
    std::uint64_t
    compress(std::uint64_t target) const
    {
        return util::truncate(target >> 2, indexBits_);
    }

    /**
     * Insert the destination of a retired branch if the paper's THB
     * policy admits it (conditional/indirect; optionally returns).
     * Inline — the profiling kernel calls it for every record; only
     * the historyStack extension leaves the header.
     */
    void
    observe(const trace::BranchRecord &record)
    {
        if (options_.historyStack && observeCallReturn(record))
            return;
        if (record.entersPathHistory(options_.includeReturns))
            insert(record.nextPc);
    }

    /** Unconditionally insert a (pre-compression) target address. */
    void
    insert(std::uint64_t target)
    {
        const std::uint64_t compressed = compress(target);

        // One rotate-and-XOR maintains every hash function at once:
        //   S_t = rotl(S_{t-1}, 1) XOR T_t,
        //   I_X = S_t XOR rotl(S_{t-X}, X)   (see the file comment).
        // Without rotation the ordering information is lost
        // (ablation). The k=1 edge case degenerates correctly:
        // (s << 1 | s) & 1 == s, matching rotl(s, 1, 1) == s.
        if (options_.rotateTargets)
            pathSum_ = ((pathSum_ << 1) | (pathSum_ >> (indexBits_ - 1)))
                     & indexMask_;
        pathSum_ ^= compressed;

        // Ring-buffer insert: step the head back one slot instead of
        // shifting all depth entries; the sum goes to both mirrors.
        head_ = (head_ - 1) & thbMask_;
        thb_[head_] = compressed;
        sums_[head_] = pathSum_;
        sums_[head_ + thbMask_ + 1] = pathSum_;

        if (occupancy_ < options_.depth)
            ++occupancy_;
    }

    /**
     * Index produced by hash function HF_length: the running path sum
     * XOR the rotated sum from @p length inserts ago (see the file
     * comment). Inline — this is the profiling kernel's hot read.
     * @param length path length, 1..depth()
     */
    std::uint64_t
    index(unsigned length) const
    {
        assert(length >= 1 && length <= options_.depth);
        // Sums are k-bit clean, so the rotate is two shifts and a
        // mask; a zero amount degenerates correctly (s >> k == 0).
        // The mirror makes head_ + length an in-bounds, unwrapped
        // position.
        const std::uint64_t s = sums_[head_ + length];
        const unsigned amount = rotAmounts_[length - 1];
        return pathSum_
            ^ (((s << amount) | (s >> (indexBits_ - amount)))
               & indexMask_);
    }

    /**
     * Reference recomputation of HF_length directly from the buffered
     * targets (rotate-and-XOR tree). Used by tests to validate the
     * incremental running-sum maintenance; O(length).
     */
    std::uint64_t directIndex(unsigned length) const;

    /** The i-th most recent compressed target, i in 1..depth(). */
    std::uint64_t target(unsigned i) const;

    /** Number of targets inserted so far (saturating at depth). */
    unsigned occupancy() const { return occupancy_; }

    /** Index width k in bits. */
    unsigned indexBits() const { return indexBits_; }

    /** THB depth N. */
    unsigned depth() const { return options_.depth; }

    /** History construction options. */
    const PathHistoryOptions &options() const { return options_; }

    /**
     * Raw state snapshot for vectorized profiling kernels: everything
     * index() reads, as plain pointers and scalars. sums[head + L]
     * rotated left by rotAmounts[L - 1] (as an indexBits-bit value)
     * XOR pathSum reproduces index(L) exactly. The ring is mirrored —
     * sums[i] == sums[i + mask + 1] for every i <= mask — so
     * sums[head + L .. head + L + n) is one contiguous, in-bounds run
     * for any lengths L .. L + n - 1 <= depth. Take a fresh view after
     * every insert.
     */
    struct RawView
    {
        const std::uint64_t *sums;
        const unsigned *rotAmounts;
        std::uint64_t pathSum;
        std::uint64_t indexMask;
        unsigned head;
        unsigned mask;
        unsigned indexBits;
    };

    /** See RawView. */
    RawView
    rawView() const
    {
        return {sums_.data(), rotAmounts_.data(), pathSum_,
                indexMask_,   head_,              thbMask_, indexBits_};
    }

    /** Clear all history. */
    void clear();

    /**
     * Hardware cost of the first-level history: the THB (N targets of
     * k bits) plus the N partial-sum registers of k bits. Reported
     * separately from predictor-table budgets, as the paper does.
     */
    std::size_t historyBytes() const;

  private:
    /**
     * The historyStack extension's half of observe(): snapshot on a
     * call, restore on a return. True when it consumed the record (a
     * return that restored a snapshot).
     */
    bool observeCallReturn(const trace::BranchRecord &record);

    /** One saved history snapshot (historyStack extension). */
    struct Snapshot
    {
        std::vector<std::uint64_t> thb;
        std::vector<std::uint64_t> sums;
        std::uint64_t pathSum = 0;
        unsigned head = 0;
        unsigned occupancy = 0;
    };

    unsigned indexBits_;
    PathHistoryOptions options_;
    /**
     * The THB as a ring buffer: thb_[head_] is the most recent
     * compressed target and older targets follow at ascending
     * (masked) offsets. The capacity is depth + 1 rounded up to a
     * power of two so target() is a masked read, and insert() is a
     * single head decrement instead of an O(depth) shift.
     */
    std::vector<std::uint64_t> thb_;
    /** Ring capacity mask (capacity - 1). */
    unsigned thbMask_;
    /** Ring position of the most recent target. */
    unsigned head_ = 0;
    /** Running path sum S_t (k-bit clean). */
    std::uint64_t pathSum_ = 0;
    /** Past path sums, sharing head_, mirrored: 2 * capacity slots
     *  with sums_[i] == sums_[i + capacity], so sums_[head_ + X] is
     *  S_{t-X} without a wrap (the capacity leaves room for
     *  S_{t-depth}). */
    std::vector<std::uint64_t> sums_;
    /** rotAmounts_[X - 1] = X mod k, or 0 with rotateTargets off. */
    std::vector<unsigned> rotAmounts_;
    /** Mask of the low indexBits_ bits. */
    std::uint64_t indexMask_;
    unsigned occupancy_ = 0;
    /** Saved snapshots, newest last (historyStack extension). */
    std::vector<Snapshot> snapshots_;
};

} // namespace core
} // namespace vlp

#endif // VLPSIM_CORE_PATH_HISTORY_H
