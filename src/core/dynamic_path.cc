/**
 * @file
 * Hardware-selected VLP implementation.
 */

#include "core/dynamic_path.h"

#include "util/bits.h"
#include "util/logging.h"

namespace vlp {
namespace core {

template <typename Class>
DynamicPathPredictor<Class>::DynamicPathPredictor(
        unsigned index_bits, std::vector<unsigned> candidates)
    : bank_(index_bits),
      candidates_(std::move(candidates)),
      table_(Class::table(index_bits)),
      scores_((std::size_t{1} << scoreIndexBits) * candidates_.size(),
              scoreBits)
{
    if (candidates_.empty())
        util::fatal("dynamic path predictor needs candidates");
    for (unsigned length : candidates_) {
        if (length < 1 || length > bank_.depth())
            util::fatal("candidate hash number out of range");
    }
}

template <typename Class>
std::size_t
DynamicPathPredictor<Class>::scoreIndex(std::uint64_t pc) const
{
    return static_cast<std::size_t>(util::truncate(pc >> 2, scoreIndexBits))
         * candidates_.size();
}

template <typename Class>
std::size_t
DynamicPathPredictor<Class>::selectedCandidate(std::uint64_t pc) const
{
    const std::size_t base = scoreIndex(pc);
    std::size_t best = 0;
    for (std::size_t c = 1; c < candidates_.size(); ++c) {
        if (scores_.value(base + c) > scores_.value(base + best))
            best = c;
    }
    return best;
}

template <typename Class>
typename Class::Prediction
DynamicPathPredictor<Class>::predict(const trace::BranchRecord &branch)
{
    const unsigned length = candidates_[selectedCandidate(branch.pc)];
    return Class::predict(table_, bank_.index(length), branch);
}

template <typename Class>
void
DynamicPathPredictor<Class>::update(const trace::BranchRecord &branch)
{
    const std::size_t base = scoreIndex(branch.pc);
    const unsigned selected = candidates_[selectedCandidate(branch.pc)];
    const bool selected_correct = Class::hit(
        Class::predict(table_, bank_.index(selected), branch), branch);

    // Tournament scoring (the §3.4 accuracy-recording structures): a
    // challenger's score moves only when its correctness *differs*
    // from the selected candidate's, so branches every length handles
    // don't saturate all scores into indistinguishable ties. Every
    // candidate's table entry keeps training — otherwise its score
    // could never reveal it. This is the hardware trade the paper
    // describes: no profiling or ISA support, but extra table
    // pressure and score storage.
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
        const bool correct =
            Class::access(table_, bank_.index(candidates_[c]), branch);
        if (correct != selected_correct)
            scores_.update(base + c, correct);
    }
}

template <typename Class>
void
DynamicPathPredictor<Class>::observe(const trace::BranchRecord &record)
{
    bank_.observe(record);
}

template <typename Class>
std::size_t
DynamicPathPredictor<Class>::sizeBytes() const
{
    return Class::tableBytes(table_) + scores_.sizeBytes();
}

template class DynamicPathPredictor<ConditionalClass>;
template class DynamicPathPredictor<IndirectClass>;

} // namespace core
} // namespace vlp
