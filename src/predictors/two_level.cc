/**
 * @file
 * Two-level adaptive predictor implementation.
 */

#include "predictors/two_level.h"

#include "util/bits.h"

namespace vlp {
namespace pred {

TwoLevelPredictor::TwoLevelPredictor(HistoryScope scope,
                                     unsigned history_bits,
                                     unsigned pht_select_bits,
                                     unsigned bht_index_bits)
    : scope_(scope),
      historyBits_(history_bits),
      phtSelectBits_(pht_select_bits),
      bhtIndexBits_(bht_index_bits),
      histories_(scope == HistoryScope::Global
                     ? 1 : (std::size_t{1} << bht_index_bits),
                 util::BitHistoryRegister(history_bits)),
      counters_(std::size_t{1} << (history_bits + pht_select_bits), 2)
{
}

std::uint64_t
TwoLevelPredictor::historyFor(std::uint64_t pc) const
{
    if (scope_ == HistoryScope::Global)
        return histories_[0].value();
    const std::size_t slot = static_cast<std::size_t>(
        util::truncate(pc >> 2, bhtIndexBits_));
    return histories_[slot].value();
}

std::size_t
TwoLevelPredictor::counterIndex(std::uint64_t pc) const
{
    const std::uint64_t pattern = historyFor(pc);
    const std::uint64_t pht = util::truncate(pc >> 2, phtSelectBits_);
    return static_cast<std::size_t>((pht << historyBits_) | pattern);
}

bool
TwoLevelPredictor::predict(const trace::BranchRecord &branch)
{
    return counters_.predictTaken(counterIndex(branch.pc));
}

void
TwoLevelPredictor::update(const trace::BranchRecord &branch)
{
    counters_.update(counterIndex(branch.pc), branch.taken);
}

void
TwoLevelPredictor::observe(const trace::BranchRecord &record)
{
    if (!record.isConditional())
        return;
    if (scope_ == HistoryScope::Global) {
        histories_[0].push(record.taken);
    } else {
        const std::size_t slot = static_cast<std::size_t>(
            util::truncate(record.pc >> 2, bhtIndexBits_));
        histories_[slot].push(record.taken);
    }
}

std::string
TwoLevelPredictor::name() const
{
    return scope_ == HistoryScope::Global ? "GAs" : "PAs";
}

std::size_t
TwoLevelPredictor::sizeBytes() const
{
    // Count the second level only, consistent with the budget
    // accounting used for all predictors in this repository.
    return counters_.sizeBytes();
}

} // namespace pred
} // namespace vlp
