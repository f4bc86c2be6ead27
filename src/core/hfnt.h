/**
 * @file
 * The Hash Function Number Table (HFNT) of Section 4.3.
 *
 * A variable length path prediction needs the branch's hash function
 * number before the branch is even decoded. The HFNT — a small table
 * indexed by low branch-address bits — predicts that number; when
 * decode later reveals the actual number (from the opcode) and it
 * differs, the branch must be re-predicted, costing a pipeline bubble
 * but not a misprediction.
 *
 * The HFNT affects timing, not accuracy, so the paper's misprediction
 * results don't involve it; we model it to quantify how often the
 * re-predict path would fire (bench_ablation).
 */

#ifndef VLPSIM_CORE_HFNT_H
#define VLPSIM_CORE_HFNT_H

#include <cstdint>
#include <vector>

#include "util/stats.h"

namespace vlp {
namespace core {

/** Direct-mapped table of predicted hash function numbers. */
class HashFunctionNumberTable
{
  public:
    /** @param index_bits log2 of the number of entries (j) */
    explicit HashFunctionNumberTable(unsigned index_bits);

    /**
     * Predict the hash function number of the branch at @p pc.
     * Cold entries predict 1 (the shortest path).
     */
    unsigned predictNumber(std::uint64_t pc);

    /**
     * Record the actual number at retirement; counts a mismatch (a
     * re-predict event) if the prediction had been wrong.
     */
    void update(std::uint64_t pc, unsigned actual_number);

    /** Fraction of lookups whose predicted number was wrong, in %. */
    double mismatchRate() const;

    /** Total lookups performed. */
    std::uint64_t lookups() const { return lookups_; }

    /** Total mismatches (re-predict events). */
    std::uint64_t mismatches() const { return mismatches_; }

    /** Hardware cost: 5 bits per entry (numbers 1..32). */
    std::size_t sizeBytes() const;

    /** Index width j in bits. */
    unsigned indexBits() const { return indexBits_; }

    /**
     * Model the table as @p banks independent single-ported banks
     * (bank = low entry-index bits) for the fetch-bundle front end.
     * Must be a power of two between 1 and the entry count; 1 (the
     * default) means an ideally multiported table — the front end
     * models conflicts only when banks > 1.
     */
    void setBanks(unsigned banks);

    /** Configured bank count. */
    unsigned banks() const { return banks_; }

    /** Bank serving the entry for @p pc. */
    unsigned
    bankOf(std::uint64_t pc) const
    {
        return static_cast<unsigned>(index(pc)) & (banks_ - 1);
    }

  private:
    std::size_t index(std::uint64_t pc) const;

    unsigned indexBits_;
    std::vector<std::uint8_t> table_;
    std::uint64_t lookups_ = 0;
    std::uint64_t mismatches_ = 0;
    unsigned banks_ = 1;
};

} // namespace core
} // namespace vlp

#endif // VLPSIM_CORE_HFNT_H
