/**
 * @file
 * The Chang, Hao & Patt "target cache" indirect branch predictors
 * (ISCA'97), in their tagless form — the paper's baselines for indirect
 * branch prediction (Figures 7, 8, 10 and Table 3).
 *
 * Both variants index one table of target registers with a hash of the
 * branch address and a global history register; they differ in what the
 * history records:
 *  - pattern variant: taken/not-taken outcomes of recent conditional
 *    branches (one bit per branch);
 *  - path variant: q low-order bits of the targets of recent indirect
 *    branches (Nair-style compressed path).
 */

#ifndef VLPSIM_PREDICTORS_TARGET_CACHE_H
#define VLPSIM_PREDICTORS_TARGET_CACHE_H

#include <vector>

#include "predictors/predictor.h"
#include "util/bits.h"
#include "util/history_register.h"

namespace vlp {
namespace pred {

/** Pattern-based (conditional-outcome history) tagless target cache. */
class PatternTargetCache final : public IndirectPredictor
{
  public:
    /**
     * @param index_bits   log2 of the target-table size
     * @param history_bits pattern history length; 0 means index_bits
     */
    explicit PatternTargetCache(unsigned index_bits,
                                unsigned history_bits = 0);

    std::uint64_t predict(const trace::BranchRecord &branch) override;

    void update(const trace::BranchRecord &branch) override;

    /**
     * predict() then update() with the table index computed once: the
     * target predicted before training. The comparison replay's
     * per-record call.
     */
    std::uint64_t
    predictAndUpdate(const trace::BranchRecord &branch)
    {
        std::uint32_t &entry = table_[index(branch.pc)];
        const std::uint64_t predicted = widenTarget(entry, branch.pc);
        entry = static_cast<std::uint32_t>(branch.nextPc);
        return predicted;
    }

    void
    observe(const trace::BranchRecord &record) override
    {
        if (record.isConditional())
            history_.push(record.taken);
    }

    std::string name() const override
    {
        return "pattern (Chang, Hao, and Patt)";
    }

    std::size_t sizeBytes() const override;

  private:
    std::size_t
    index(std::uint64_t pc) const
    {
        const std::uint64_t address = util::xorFold(pc >> 2, indexBits_);
        return static_cast<std::size_t>(
            util::truncate(address ^ history_.value(), indexBits_));
    }

    unsigned indexBits_;
    util::BitHistoryRegister history_;
    std::vector<std::uint32_t> table_;
};

/** Path-based (compressed-target history) tagless target cache. */
class PathTargetCache final : public IndirectPredictor
{
  public:
    /**
     * @param index_bits log2 of the target-table size
     * @param chunk_bits low-order target bits shifted into the history
     *        per indirect branch (q)
     */
    explicit PathTargetCache(unsigned index_bits,
                             unsigned chunk_bits = 2);

    std::uint64_t predict(const trace::BranchRecord &branch) override;

    void update(const trace::BranchRecord &branch) override;

    /**
     * predict() then update() with the table index computed once: the
     * target predicted before training. The comparison replay's
     * per-record call.
     */
    std::uint64_t
    predictAndUpdate(const trace::BranchRecord &branch)
    {
        std::uint32_t &entry = table_[index(branch.pc)];
        const std::uint64_t predicted = widenTarget(entry, branch.pc);
        entry = static_cast<std::uint32_t>(branch.nextPc);
        return predicted;
    }

    void
    observe(const trace::BranchRecord &record) override
    {
        // The path history records targets of indirect branches (the
        // "history of targets" organization of Chang, Hao & Patt).
        // Word alignment is dropped so the chunk bits carry
        // information.
        if (record.isIndirect())
            history_.push(record.nextPc >> 2);
    }

    std::string name() const override
    {
        return "path (Chang, Hao, and Patt)";
    }

    std::size_t sizeBytes() const override;

  private:
    std::size_t
    index(std::uint64_t pc) const
    {
        const std::uint64_t address = util::xorFold(pc >> 2, indexBits_);
        return static_cast<std::size_t>(
            util::truncate(address ^ history_.value(), indexBits_));
    }

    unsigned indexBits_;
    util::ChunkHistoryRegister history_;
    std::vector<std::uint32_t> table_;
};

} // namespace pred
} // namespace vlp

#endif // VLPSIM_PREDICTORS_TARGET_CACHE_H
