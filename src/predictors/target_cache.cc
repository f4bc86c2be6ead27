/**
 * @file
 * Target cache implementations.
 */

#include "predictors/target_cache.h"

namespace vlp {
namespace pred {

PatternTargetCache::PatternTargetCache(unsigned index_bits,
                                       unsigned history_bits)
    : indexBits_(index_bits),
      history_(history_bits == 0 ? index_bits : history_bits),
      table_(std::size_t{1} << index_bits, 0)
{
}

std::uint64_t
PatternTargetCache::predict(const trace::BranchRecord &branch)
{
    return widenTarget(table_[index(branch.pc)], branch.pc);
}

void
PatternTargetCache::update(const trace::BranchRecord &branch)
{
    table_[index(branch.pc)] =
        static_cast<std::uint32_t>(branch.nextPc);
}

std::size_t
PatternTargetCache::sizeBytes() const
{
    return table_.size() * sizeof(std::uint32_t);
}

PathTargetCache::PathTargetCache(unsigned index_bits,
                                 unsigned chunk_bits)
    : indexBits_(index_bits),
      history_(index_bits, chunk_bits),
      table_(std::size_t{1} << index_bits, 0)
{
}

std::uint64_t
PathTargetCache::predict(const trace::BranchRecord &branch)
{
    return widenTarget(table_[index(branch.pc)], branch.pc);
}

void
PathTargetCache::update(const trace::BranchRecord &branch)
{
    table_[index(branch.pc)] =
        static_cast<std::uint32_t>(branch.nextPc);
}

std::size_t
PathTargetCache::sizeBytes() const
{
    return table_.size() * sizeof(std::uint32_t);
}

} // namespace pred
} // namespace vlp
