/**
 * @file
 * The gshare conditional branch predictor (McFarling, WRL TN-36) — the
 * paper's baseline for conditional branch prediction.
 */

#ifndef VLPSIM_PREDICTORS_GSHARE_H
#define VLPSIM_PREDICTORS_GSHARE_H

#include "predictors/predictor.h"
#include "util/bits.h"
#include "util/history_register.h"
#include "util/packed_counter_table.h"

namespace vlp {
namespace pred {

/**
 * gshare: a global branch-outcome history register XORed with the
 * branch address to index one table of 2-bit saturating counters.
 *
 * The history length defaults to the index width, which maximizes the
 * history captured for a given table budget (the classic
 * configuration).
 */
class GsharePredictor final : public ConditionalPredictor
{
  public:
    /**
     * @param index_bits  log2 of the counter-table size
     * @param history_bits global history length; 0 means index_bits
     */
    explicit GsharePredictor(unsigned index_bits,
                             unsigned history_bits = 0);

    bool predict(const trace::BranchRecord &branch) override;

    void update(const trace::BranchRecord &branch) override;

    /**
     * predict() then update() with the table index computed once: the
     * prediction made before training. The comparison replay's
     * per-record call.
     */
    bool
    predictAndUpdate(const trace::BranchRecord &branch)
    {
        return table_.predictThenUpdate(index(branch.pc), branch.taken);
    }

    void
    observe(const trace::BranchRecord &record) override
    {
        if (record.isConditional())
            history_.push(record.taken);
    }

    std::string name() const override { return "gshare"; }

    std::size_t sizeBytes() const override;

    /** Index width in bits. */
    unsigned indexBits() const { return indexBits_; }

    /** Current global history pattern (for tests). */
    std::uint64_t history() const { return history_.value(); }

  private:
    /** Table index for @p pc under the current history. */
    std::size_t
    index(std::uint64_t pc) const
    {
        // Branch addresses are word aligned; drop the always-zero bits
        // before folding so they don't waste index entropy.
        const std::uint64_t address = util::xorFold(pc >> 2, indexBits_);
        return static_cast<std::size_t>(
            util::truncate(address ^ history_.value(), indexBits_));
    }

    unsigned indexBits_;
    util::BitHistoryRegister history_;
    util::PackedCounterTable table_;
};

} // namespace pred
} // namespace vlp

#endif // VLPSIM_PREDICTORS_GSHARE_H
