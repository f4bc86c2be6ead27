/**
 * @file
 * gshare implementation.
 */

#include "predictors/gshare.h"

namespace vlp {
namespace pred {

GsharePredictor::GsharePredictor(unsigned index_bits,
                                 unsigned history_bits)
    : indexBits_(index_bits),
      history_(history_bits == 0 ? index_bits : history_bits),
      table_(std::size_t{1} << index_bits, 2)
{
}

bool
GsharePredictor::predict(const trace::BranchRecord &branch)
{
    return table_.predictTaken(index(branch.pc));
}

void
GsharePredictor::update(const trace::BranchRecord &branch)
{
    table_.update(index(branch.pc), branch.taken);
}

std::size_t
GsharePredictor::sizeBytes() const
{
    return table_.sizeBytes(); // 2-bit counters, packed
}

} // namespace pred
} // namespace vlp
