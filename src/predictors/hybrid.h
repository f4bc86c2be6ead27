/**
 * @file
 * McFarling-style hybrid (tournament) conditional predictor: two
 * component predictors plus a PC-indexed selector table of 2-bit
 * counters that learns which component to trust per branch.
 *
 * The paper cites hybrid prediction as related work; we provide it as a
 * stronger baseline for ablation studies.
 */

#ifndef VLPSIM_PREDICTORS_HYBRID_H
#define VLPSIM_PREDICTORS_HYBRID_H

#include <memory>
#include <vector>

#include "predictors/predictor.h"
#include "util/saturating_counter.h"

namespace vlp {
namespace pred {

/** Selector-based combination of two conditional predictors. */
class HybridPredictor : public ConditionalPredictor
{
  public:
    /**
     * @param first  component favoured when the selector counter is
     *        high
     * @param second component favoured when the selector counter is
     *        low
     * @param selector_index_bits log2 of the selector table size
     */
    HybridPredictor(std::unique_ptr<ConditionalPredictor> first,
                    std::unique_ptr<ConditionalPredictor> second,
                    unsigned selector_index_bits);

    bool predict(const trace::BranchRecord &branch) override;

    void update(const trace::BranchRecord &branch) override;

    void observe(const trace::BranchRecord &record) override;

    std::string name() const override;

    std::size_t sizeBytes() const override;

  private:
    std::size_t selectorIndex(std::uint64_t pc) const;

    std::unique_ptr<ConditionalPredictor> first_;
    std::unique_ptr<ConditionalPredictor> second_;
    unsigned selectorIndexBits_;
    std::vector<util::SaturatingCounter> selector_;

    /** Component predictions captured at predict() for the update. */
    bool lastFirst_ = false;
    bool lastSecond_ = false;
};

} // namespace pred
} // namespace vlp

#endif // VLPSIM_PREDICTORS_HYBRID_H
