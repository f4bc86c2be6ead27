/**
 * @file
 * gselect implementation.
 */

#include "predictors/gselect.h"

#include "util/bits.h"

namespace vlp {
namespace pred {

GselectPredictor::GselectPredictor(unsigned index_bits,
                                   unsigned history_bits)
    : indexBits_(index_bits),
      historyBits_(history_bits == 0 ? index_bits / 2 : history_bits),
      history_(historyBits_ == 0 ? 1 : historyBits_),
      table_(std::size_t{1} << index_bits, 2)
{
}

std::size_t
GselectPredictor::index(std::uint64_t pc) const
{
    const unsigned pc_bits = indexBits_ - historyBits_;
    const std::uint64_t address = util::truncate(pc >> 2, pc_bits);
    return static_cast<std::size_t>(
        (address << historyBits_)
        | util::truncate(history_.value(), historyBits_));
}

bool
GselectPredictor::predict(const trace::BranchRecord &branch)
{
    return table_.predictTaken(index(branch.pc));
}

void
GselectPredictor::update(const trace::BranchRecord &branch)
{
    table_.update(index(branch.pc), branch.taken);
}

void
GselectPredictor::observe(const trace::BranchRecord &record)
{
    if (record.isConditional())
        history_.push(record.taken);
}

std::size_t
GselectPredictor::sizeBytes() const
{
    return table_.sizeBytes();
}

} // namespace pred
} // namespace vlp
