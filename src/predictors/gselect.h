/**
 * @file
 * gselect (McFarling's concatenation variant): the table index is the
 * concatenation of low branch-address bits and recent global history
 * bits, rather than gshare's XOR. Included for completeness of the
 * two-level family the paper builds on.
 */

#ifndef VLPSIM_PREDICTORS_GSELECT_H
#define VLPSIM_PREDICTORS_GSELECT_H

#include "predictors/predictor.h"
#include "util/history_register.h"
#include "util/packed_counter_table.h"

namespace vlp {
namespace pred {

/** Concatenated PC|history indexed table of 2-bit counters. */
class GselectPredictor : public ConditionalPredictor
{
  public:
    /**
     * @param index_bits   log2 of the counter-table size
     * @param history_bits history bits in the index (rest is PC);
     *        must be < index_bits; 0 means index_bits / 2
     */
    explicit GselectPredictor(unsigned index_bits,
                              unsigned history_bits = 0);

    bool predict(const trace::BranchRecord &branch) override;

    void update(const trace::BranchRecord &branch) override;

    void observe(const trace::BranchRecord &record) override;

    std::string name() const override { return "gselect"; }

    std::size_t sizeBytes() const override;

  private:
    std::size_t index(std::uint64_t pc) const;

    unsigned indexBits_;
    unsigned historyBits_;
    util::BitHistoryRegister history_;
    util::PackedCounterTable table_;
};

} // namespace pred
} // namespace vlp

#endif // VLPSIM_PREDICTORS_GSELECT_H
