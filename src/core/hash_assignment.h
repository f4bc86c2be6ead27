/**
 * @file
 * Per-static-branch hash function numbers: the product of the paper's
 * profiling step, conceptually carried in the branch opcodes (Section
 * 4.2) and consumed by the variable length path predictor.
 */

#ifndef VLPSIM_CORE_HASH_ASSIGNMENT_H
#define VLPSIM_CORE_HASH_ASSIGNMENT_H

#include <cstdint>
#include <string>
#include <unordered_map>

#include "util/stats.h"

namespace vlp {
namespace core {

/**
 * Map from branch address to selected hash function number (the path
 * length used to predict that branch). Branches not present — those
 * not exercised during profiling, or all branches when profiling is
 * deemed too expensive — use the default number (Section 3.4).
 */
class HashAssignment
{
  public:
    /** @param default_length hash number for unassigned branches */
    explicit HashAssignment(unsigned default_length = 1);

    /** Selected hash number for the branch at @p pc. */
    unsigned lookup(std::uint64_t pc) const;

    /** Assign hash number @p length to the branch at @p pc. */
    void assign(std::uint64_t pc, unsigned length);

    /** True if @p pc has an explicit assignment. */
    bool contains(std::uint64_t pc) const;

    /** Hash number used for unassigned branches. */
    unsigned defaultLength() const { return defaultLength_; }

    /** Set the default hash number. */
    void setDefaultLength(unsigned length);

    /** Number of explicit per-branch assignments. */
    std::size_t size() const { return table_.size(); }

    /** Histogram of assigned lengths (bucket = length; 33 buckets). */
    util::Histogram lengthHistogram() const;

    /**
     * Write to a text file: first line the default, then one
     * "pc length" pair (hex pc) per line, in ascending pc order, so
     * equal assignments give equal files.
     * @throws std::runtime_error on I/O failure
     */
    void save(const std::string &path) const;

    /**
     * Read an assignment previously written by save().
     * @throws std::runtime_error on I/O errors, and with "malformed
     *         assignment file: line N: ..." on a bad header, a line
     *         that is not one "pc length" pair with a length in 1..32,
     *         or a pc assigned twice
     */
    static HashAssignment load(const std::string &path);

    /** Access to all assignments (pc -> length). */
    const std::unordered_map<std::uint64_t, unsigned> &
    table() const
    {
        return table_;
    }

  private:
    unsigned defaultLength_;
    std::unordered_map<std::uint64_t, unsigned> table_;
};

} // namespace core
} // namespace vlp

#endif // VLPSIM_CORE_HASH_ASSIGNMENT_H
