/**
 * @file
 * Hybrid predictor implementation.
 */

#include "predictors/hybrid.h"

#include "util/bits.h"

namespace vlp {
namespace pred {

HybridPredictor::HybridPredictor(
        std::unique_ptr<ConditionalPredictor> first,
        std::unique_ptr<ConditionalPredictor> second,
        unsigned selector_index_bits)
    : first_(std::move(first)),
      second_(std::move(second)),
      selectorIndexBits_(selector_index_bits),
      selector_(std::size_t{1} << selector_index_bits,
                util::SaturatingCounter(2))
{
}

std::size_t
HybridPredictor::selectorIndex(std::uint64_t pc) const
{
    return static_cast<std::size_t>(
        util::truncate(pc >> 2, selectorIndexBits_));
}

bool
HybridPredictor::predict(const trace::BranchRecord &branch)
{
    lastFirst_ = first_->predict(branch);
    lastSecond_ = second_->predict(branch);
    const bool use_first =
        selector_[selectorIndex(branch.pc)].predictTaken();
    return use_first ? lastFirst_ : lastSecond_;
}

void
HybridPredictor::update(const trace::BranchRecord &branch)
{
    // Train the selector only when the components disagree, toward the
    // component that was right.
    if (lastFirst_ != lastSecond_) {
        selector_[selectorIndex(branch.pc)].update(
            lastFirst_ == branch.taken);
    }
    first_->update(branch);
    second_->update(branch);
}

void
HybridPredictor::observe(const trace::BranchRecord &record)
{
    first_->observe(record);
    second_->observe(record);
}

std::string
HybridPredictor::name() const
{
    return "hybrid(" + first_->name() + "+" + second_->name() + ")";
}

std::size_t
HybridPredictor::sizeBytes() const
{
    return first_->sizeBytes() + second_->sizeBytes()
         + selector_.size() / 4;
}

} // namespace pred
} // namespace vlp
