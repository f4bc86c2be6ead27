/**
 * @file
 * Yeh & Patt two-level adaptive predictors (GAs and PAs), the
 * predecessors of gshare the paper builds its terminology on.
 *
 * First level: one or more k-bit branch history registers (one global
 * register for GAs; a PC-indexed table of registers for PAs). Second
 * level: 2^pht_select_bits pattern history tables of 2-bit counters,
 * selected by low branch-address bits, indexed by the history pattern.
 */

#ifndef VLPSIM_PREDICTORS_TWO_LEVEL_H
#define VLPSIM_PREDICTORS_TWO_LEVEL_H

#include <vector>

#include "predictors/predictor.h"
#include "util/history_register.h"
#include "util/packed_counter_table.h"

namespace vlp {
namespace pred {

/** First-level history organization of a two-level predictor. */
enum class HistoryScope {
    /** One global history register (GAs). */
    Global,
    /** One history register per branch-address set (PAs). */
    PerAddress,
};

/**
 * A configurable two-level adaptive predictor covering the GAs and PAs
 * schemes of Yeh & Patt.
 */
class TwoLevelPredictor : public ConditionalPredictor
{
  public:
    /**
     * @param scope           Global (GAs) or PerAddress (PAs)
     * @param history_bits    history register length k
     * @param pht_select_bits log2 of the number of PHTs (selected by
     *        branch-address bits); 0 means a single shared PHT
     * @param bht_index_bits  for PAs: log2 of the number of first-level
     *        history registers (ignored for GAs)
     */
    TwoLevelPredictor(HistoryScope scope, unsigned history_bits,
                      unsigned pht_select_bits,
                      unsigned bht_index_bits = 10);

    bool predict(const trace::BranchRecord &branch) override;

    void update(const trace::BranchRecord &branch) override;

    void observe(const trace::BranchRecord &record) override;

    std::string name() const override;

    std::size_t sizeBytes() const override;

  private:
    /** History pattern used for @p pc. */
    std::uint64_t historyFor(std::uint64_t pc) const;

    /** Counter index within the selected PHT arrangement. */
    std::size_t counterIndex(std::uint64_t pc) const;

    HistoryScope scope_;
    unsigned historyBits_;
    unsigned phtSelectBits_;
    unsigned bhtIndexBits_;
    /** GAs: one entry; PAs: 2^bht_index_bits entries. */
    std::vector<util::BitHistoryRegister> histories_;
    /** All PHTs concatenated: pht_select * 2^history_bits + pattern. */
    util::PackedCounterTable counters_;
};

} // namespace pred
} // namespace vlp

#endif // VLPSIM_PREDICTORS_TWO_LEVEL_H
