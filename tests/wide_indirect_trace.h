/**
 * @file
 * A trace for the oracles of the chunked edge feed (core/replay_feed.h),
 * which reads a streamed source 4096 records at a time.
 */

#ifndef VLPSIM_TESTS_WIDE_INDIRECT_TRACE_H
#define VLPSIM_TESTS_WIDE_INDIRECT_TRACE_H

#include <cstdint>
#include <vector>

#include "trace/branch_record.h"
#include "util/rng.h"

namespace vlp {
namespace testing_traces {

/**
 * One indirect jump with more than 4096 distinct targets among
 * conditional branches taken both ways, 3 × 4096 + 1500 records long.
 * Its first 4096 records are the jump to 4096 distinct targets, so a
 * streamed feed's first chunk is 4096 distinct edges. The next two
 * chunks mix conditional branches with the jump to earlier targets.
 * New targets and new conditional branches first appear in the final,
 * partial chunk.
 */
inline std::vector<trace::BranchRecord>
makeWideIndirectTrace()
{
    constexpr std::uint64_t chunk = 4096;
    util::Rng rng(29);
    std::vector<trace::BranchRecord> records;
    for (std::uint64_t i = 0; i < 3 * chunk + 1500; ++i) {
        const bool last_chunk = i >= 3 * chunk;
        trace::BranchRecord record;
        if (i < chunk || i % 3 == 0) {
            const std::uint64_t target = i < chunk ? i
                : last_chunk                       ? i - 2 * chunk
                                                   : rng.nextBelow(chunk);
            record.kind = trace::BranchKind::IndirectJump;
            record.pc = 0x8000;
            record.nextPc = 0x100000 + 64 * target;
        } else {
            record.kind = trace::BranchKind::Conditional;
            record.pc = (last_chunk && i % 3 == 1 ? 0x3000 : 0x1000)
                      + 16 * rng.nextBelow(24);
            record.taken = rng.nextBool(0.7);
            record.nextPc = record.taken ? record.pc + 256 : record.pc + 4;
        }
        records.push_back(record);
    }
    return records;
}

} // namespace testing_traces
} // namespace vlp

#endif // VLPSIM_TESTS_WIDE_INDIRECT_TRACE_H
