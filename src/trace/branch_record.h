/**
 * @file
 * The branch-trace record: the unit of information every predictor in
 * this repository consumes.
 *
 * The paper's methodology instruments Alpha binaries with ATOM and feeds
 * the resulting branch stream to simulated predictors. Our equivalent is
 * a stream of BranchRecord values, produced either by the synthetic
 * workload engine (src/workload) or by reading a .vbt trace file
 * (src/trace/trace_io.h).
 */

#ifndef VLPSIM_TRACE_BRANCH_RECORD_H
#define VLPSIM_TRACE_BRANCH_RECORD_H

#include <cstdint>

namespace vlp {
namespace trace {

/** Static branch classes, mirroring the classes the paper treats
 *  differently. */
enum class BranchKind : std::uint8_t {
    /** Conditional direct branch (predicted by conditional predictors). */
    Conditional = 0,
    /** Unconditional direct jump (never stored in the THB). */
    Unconditional = 1,
    /** Direct subroutine call (pushes the return address). */
    DirectCall = 2,
    /** Indirect jump, e.g. a switch statement (indirect predictors). */
    IndirectJump = 3,
    /** Indirect subroutine call, e.g. through a function pointer or
     *  vtable (indirect predictors; also pushes the return address). */
    IndirectCall = 4,
    /** Subroutine return. Predicted by the return address stack and, as
     *  in the paper, excluded from indirect-predictor statistics. */
    Return = 5,
};

/** Number of distinct BranchKind values. */
constexpr unsigned numBranchKinds = 6;

/**
 * Instruction size in bytes (fixed, as on the Alpha). A call's return
 * address is its pc plus this.
 */
constexpr std::uint64_t instructionBytes = 4;

/** Human-readable name of a branch kind. */
const char *branchKindName(BranchKind kind);

/**
 * One dynamic branch instance.
 *
 * @c nextPc is the address control flow actually went to: the branch
 * target when taken, the fall-through address when a conditional branch
 * is not taken. Path-history structures record this executed destination
 * (see DESIGN.md §2 for why).
 */
struct BranchRecord
{
    /** Address of the branch instruction. */
    std::uint64_t pc = 0;
    /** Executed destination (target if taken, else fall-through). */
    std::uint64_t nextPc = 0;
    /** Direction; always true for non-conditional branches. */
    bool taken = true;
    /** Static class of the branch. */
    BranchKind kind = BranchKind::Conditional;

    /** True for conditional direct branches. */
    bool
    isConditional() const
    {
        return kind == BranchKind::Conditional;
    }

    /**
     * True for the indirect branches the paper's indirect predictors
     * handle: indirect jumps and indirect calls, but not returns.
     */
    bool
    isIndirect() const
    {
        return kind == BranchKind::IndirectJump
            || kind == BranchKind::IndirectCall;
    }

    /** True for both kinds of subroutine call. */
    bool
    isCall() const
    {
        return kind == BranchKind::DirectCall
            || kind == BranchKind::IndirectCall;
    }

    /** True for subroutine returns. */
    bool isReturn() const { return kind == BranchKind::Return; }

    /**
     * True if this branch's destination is inserted into the Target
     * History Buffer under the paper's policy (Section 3.2):
     * conditional and indirect branches yes; unconditional branches and
     * (by default) returns no.
     *
     * @param includeReturns also insert return targets (the paper's
     *        ablation; off in its experiments)
     */
    bool
    entersPathHistory(bool includeReturns = false) const
    {
        return isConditional() || isIndirect()
            || (includeReturns && isReturn());
    }

    bool operator==(const BranchRecord &other) const = default;
};

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_BRANCH_RECORD_H
