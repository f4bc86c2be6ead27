/**
 * @file
 * The elastic history buffer (Tarlescu, Theobald & Gao, ICCD'97),
 * cited by the paper as the profile-selected *pattern*-history-length
 * predecessor of its idea: a gshare in which the number of global
 * history bits used to form the index is chosen per static branch by
 * profiling. Comparing it against the variable length *path* predictor
 * isolates how much of the paper's gain comes from per-branch length
 * selection versus from using paths instead of patterns.
 */

#ifndef VLPSIM_PREDICTORS_ELASTIC_H
#define VLPSIM_PREDICTORS_ELASTIC_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "predictors/predictor.h"
#include "trace/trace_source.h"
#include "util/history_register.h"
#include "util/saturating_counter.h"

namespace vlp {
namespace pred {

/** Per-static-branch history-length map (0 = bimodal behaviour). */
struct PatternLengthAssignment
{
    std::unordered_map<std::uint64_t, unsigned> lengths;
    unsigned defaultLength = 0;

    /** Length for the branch at @p pc. */
    unsigned
    lookup(std::uint64_t pc) const
    {
        const auto it = lengths.find(pc);
        return it == lengths.end() ? defaultLength : it->second;
    }
};

/** gshare whose history length is selected per branch by profiling. */
class ElasticGsharePredictor : public ConditionalPredictor
{
  public:
    /**
     * @param index_bits log2 of the counter-table size (also the
     *        maximum usable history length)
     * @param assignment per-branch history lengths
     */
    ElasticGsharePredictor(unsigned index_bits,
                           PatternLengthAssignment assignment);

    bool predict(const trace::BranchRecord &branch) override;

    void update(const trace::BranchRecord &branch) override;

    void observe(const trace::BranchRecord &record) override;

    std::string name() const override { return "elastic gshare"; }

    std::size_t sizeBytes() const override;

  private:
    std::size_t index(std::uint64_t pc) const;

    unsigned indexBits_;
    PatternLengthAssignment assignment_;
    util::BitHistoryRegister history_;
    std::vector<util::SaturatingCounter> table_;
};

/**
 * Profiles per-branch pattern-history lengths: simulates gshare at
 * every length 0..index_bits with private tables and keeps, for each
 * static branch, the length with the most correct predictions (the
 * analogue of the paper's profiling step 1 for pattern history).
 */
class ElasticProfiler
{
  public:
    /** @param index_bits log2 of the counter-table size */
    explicit ElasticProfiler(unsigned index_bits);

    /** Run over @p profile_trace (reset first) and select lengths. */
    PatternLengthAssignment profile(trace::TraceSource &profile_trace);

  private:
    unsigned indexBits_;
};

} // namespace pred
} // namespace vlp

#endif // VLPSIM_PREDICTORS_ELASTIC_H
