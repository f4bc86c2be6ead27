/**
 * @file
 * The synthetic program representation: a control-flow graph of
 * single-instruction blocks grouped into functions, each block ending in
 * a terminator (conditional branch, jump, indirect jump, call, indirect
 * call, return, or plain fall-through).
 *
 * Programs are built with ProgramBuilder (which lays out addresses and
 * validates the graph) and executed by ExecutionEngine (engine.h), which
 * turns them into branch traces.
 *
 * Address model: every block is 4 bytes (one instruction, as on the
 * Alpha), blocks of a function are contiguous, and fall-through from a
 * conditional branch goes to the lexically next block. This gives
 * realistic word-aligned addresses with full entropy above bit 1.
 */

#ifndef VLPSIM_WORKLOAD_PROGRAM_H
#define VLPSIM_WORKLOAD_PROGRAM_H

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "workload/behavior.h"

namespace vlp {
namespace workload {

/** Index of a block within a Program. */
using BlockId = std::uint32_t;
/** Index of a function within a Program. */
using FuncId = std::uint32_t;

/** Sentinel for "no block" / "no function". */
constexpr BlockId invalidId = std::numeric_limits<std::uint32_t>::max();

/** Bytes per block (one Alpha-style instruction). */
constexpr std::uint64_t blockBytes = 4;

/** Base address of the synthetic text segment. */
constexpr std::uint64_t textBase = 0x0000000000400000ULL;

/** The kinds of block terminators. */
enum class TermKind : std::uint8_t {
    /** No branch; execution continues at the next block. */
    FallThrough,
    /** Conditional direct branch; not-taken falls through. */
    CondBranch,
    /** Unconditional direct jump. */
    Jump,
    /** Indirect jump through a jump table (switch). */
    IndirectJump,
    /** Direct call; execution resumes at the next block on return. */
    Call,
    /** Indirect call through a function pointer / vtable. */
    IndirectCall,
    /** Subroutine return. */
    Return,
};

/** A block's terminator and its outgoing edges. */
struct Terminator
{
    TermKind kind = TermKind::FallThrough;
    /** CondBranch taken target or Jump target. */
    BlockId target = invalidId;
    /** IndirectJump candidate target blocks. */
    std::vector<BlockId> targets;
    /** Call callee. */
    FuncId callee = invalidId;
    /** IndirectCall candidate callees. */
    std::vector<FuncId> callees;
    /** Outcome model for CondBranch. */
    std::unique_ptr<ConditionalBehavior> condBehavior;
    /** Target model for IndirectJump / IndirectCall. */
    std::unique_ptr<IndirectBehavior> indBehavior;
};

/** One single-instruction basic block. */
struct Block
{
    /** Start address (== the terminator instruction's PC). */
    std::uint64_t addr = 0;
    /** Function this block belongs to. */
    FuncId func = invalidId;
    Terminator term;
};

/** A function: a contiguous run of blocks, entered at the first. */
struct Function
{
    BlockId firstBlock = invalidId;
    std::uint32_t numBlocks = 0;
};

/**
 * A complete synthetic program. Behaviour objects carry per-branch
 * mutable state (loop counters, Markov histories); call
 * resetBehaviorState() before each independent run.
 */
class Program
{
  public:
    /** All blocks, indexable by BlockId. */
    const std::vector<Block> &blocks() const { return blocks_; }

    /** All functions, indexable by FuncId. */
    const std::vector<Function> &functions() const { return functions_; }

    /** The function execution starts in. */
    FuncId mainFunction() const { return main_; }

    /** Block by id (bounds-checked by assert). */
    const Block &block(BlockId id) const;

    /** Mutable block access (behaviour state lives in terminators). */
    Block &block(BlockId id);

    /** Entry block of @p func. */
    BlockId entryBlock(FuncId func) const;

    /** Address of @p block's instruction. */
    std::uint64_t blockAddr(BlockId id) const { return block(id).addr; }

    /** Number of static conditional branches. Test seam, like
     *  staticIndirects(): tests lock that the generator builds each
     *  benchmark with its static-branch targets, which set the trace
     *  every production binary simulates. */
    std::uint64_t staticConditionals() const;

    /** Number of static indirect branches (jumps + calls). Test seam,
     *  as staticConditionals() is. */
    std::uint64_t staticIndirects() const;

    /** Reset all per-branch behaviour state for a fresh run. */
    void resetBehaviorState();

  private:
    friend class ProgramBuilder;

    std::vector<Block> blocks_;
    std::vector<Function> functions_;
    FuncId main_ = invalidId;
};

/**
 * Incremental builder for Program.
 *
 * Usage:
 * @code
 *   ProgramBuilder builder;
 *   FuncId f = builder.beginFunction();
 *   BlockId header = builder.addBlock();
 *   BlockId body = builder.addBlock();
 *   ...
 *   builder.setCond(header, exit_block,
 *                   std::make_unique<LoopBehavior>(4, 12, true));
 *   builder.setReturn(last);
 *   builder.endFunction();
 *   Program program = builder.finalize(f);
 * @endcode
 *
 * finalize() assigns addresses and validates the whole graph; structural
 * errors (dangling targets, fall-through off the end of a function,
 * conditional branches as the last block, missing behaviours) raise
 * std::runtime_error via util::fatal.
 */
class ProgramBuilder
{
  public:
    ProgramBuilder() = default;

    /** Start a new function; returns its id. */
    FuncId beginFunction();

    /** Append a fall-through block to the current function. */
    BlockId addBlock();

    /**
     * Make @p id a conditional branch to @p taken_target; not-taken
     * falls through to the next block (which must exist).
     */
    void setCond(BlockId id, BlockId taken_target,
                 std::unique_ptr<ConditionalBehavior> behavior);

    /** Make @p id an unconditional jump to @p target. */
    void setJump(BlockId id, BlockId target);

    /** Make @p id an indirect jump over @p targets. */
    void setIndirectJump(BlockId id, std::vector<BlockId> targets,
                         std::unique_ptr<IndirectBehavior> behavior);

    /** Make @p id a direct call to @p callee, resuming at the next
     *  block. */
    void setCall(BlockId id, FuncId callee);

    /** Make @p id an indirect call over @p callees, resuming at the
     *  next block. */
    void setIndirectCall(BlockId id, std::vector<FuncId> callees,
                         std::unique_ptr<IndirectBehavior> behavior);

    /** Make @p id a return. */
    void setReturn(BlockId id);

    /** Close the current function. */
    void endFunction();

    /** Static conditional branches added so far. */
    std::uint64_t staticConditionals() const { return staticCond_; }

    /** Static indirect branches added so far. */
    std::uint64_t staticIndirects() const { return staticInd_; }

    /** Functions begun so far. */
    std::size_t functionCount() const { return program_.functions_.size(); }

    /**
     * Validate, lay out addresses, and produce the Program.
     * @param main the function execution starts in
     */
    Program finalize(FuncId main);

  private:
    Block &editableBlock(BlockId id);

    Program program_;
    bool inFunction_ = false;
    std::uint64_t staticCond_ = 0;
    std::uint64_t staticInd_ = 0;
};

} // namespace workload
} // namespace vlp

#endif // VLPSIM_WORKLOAD_PROGRAM_H
