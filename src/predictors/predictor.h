/**
 * @file
 * Predictor interfaces shared by the baselines (this library) and the
 * paper's fixed/variable length path predictors (src/core).
 *
 * Simulation protocol, per trace record:
 *   1. if the record is a conditional branch, each conditional
 *      predictor's predict() is called, then its update();
 *   2. if the record is an indirect branch (jump or call, not return),
 *      each indirect predictor's predict() is called, then update();
 *   3. every predictor's observe() is called with the record.
 * sim::Simulator enforces it through these virtual calls and is the
 * reference. The comparison replay (sim/replay.h) and the profiler's
 * step-2 loop follow the same protocol on concrete types: a fused
 * predict-and-update per table, then one history advance per record.
 *
 * predict()/update() touch only the predictor *tables*; observe()
 * maintains *history* (branch history registers, target history
 * buffers). The separation mirrors hardware, where history is updated
 * for every fetched branch while tables are written at retirement, and
 * it lets each predictor decide which branch classes feed its history.
 *
 * Speculative protocol (sim::FetchEngine, DESIGN.md §17): a wide
 * front-end advances history at *fetch* with the predicted outcome and
 * must repair it when the branch resolves the other way. Predictors
 * expose that as three additional hooks:
 *   - speculate(record): advance history with a record embodying the
 *     *predicted* outcome (for a correctly predicted branch this is
 *     exactly observe() of the retired record);
 *   - checkpoint(): an opaque snapshot of the history state — tables
 *     are retirement state and are never captured;
 *   - restore(checkpoint): rewind history to a snapshot (mispredict
 *     repair).
 * The defaults keep every existing predictor and caller working: a
 * predictor with no override speculates by observing and has a
 * stateless (no-op) checkpoint. The retirement-order
 * predict→update→observe path is untouched.
 */

#ifndef VLPSIM_PREDICTORS_PREDICTOR_H
#define VLPSIM_PREDICTORS_PREDICTOR_H

#include <cstdint>
#include <memory>
#include <string>

#include "trace/branch_record.h"

namespace vlp {
namespace pred {

/**
 * Opaque snapshot of a predictor's history state, produced by
 * Predictor::checkpoint() and consumed by Predictor::restore(). Each
 * predictor derives its own snapshot type; restore() rejects foreign
 * checkpoints (std::bad_cast). The base class itself is the valid
 * checkpoint of a predictor with no history.
 */
class Checkpoint
{
  public:
    Checkpoint() = default;
    virtual ~Checkpoint() = default;
};

/** Owning handle for an opaque history checkpoint. */
using CheckpointPtr = std::unique_ptr<Checkpoint>;

/** Common base: naming, sizing, and history observation. */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /**
     * Observe a retired branch of any kind. Called for every trace
     * record, after any predict()/update() for that record. History
     * structures are maintained here.
     */
    virtual void observe(const trace::BranchRecord &record)
    {
        (void)record;
    }

    /**
     * Advance history speculatively at fetch with @p record carrying
     * the *predicted* outcome (taken/nextPc as the front-end guessed
     * them). For a correct prediction the record equals the retired
     * one and this must behave exactly like observe(); the default
     * does precisely that. Wrong-path effects are undone by
     * restore(), never retired.
     */
    virtual void speculate(const trace::BranchRecord &record)
    {
        observe(record);
    }

    /**
     * Snapshot the history state (never the tables). The snapshot is
     * a value: restoring it is valid any number of times, in any
     * order, unless a subclass documents a tighter protocol (the
     * HFNT-style journaled snapshots are LIFO).
     */
    virtual CheckpointPtr checkpoint() const
    {
        return std::make_unique<Checkpoint>();
    }

    /**
     * Rewind history to @p checkpoint (a snapshot this predictor
     * produced). @throws std::bad_cast for a foreign checkpoint.
     */
    virtual void restore(const Checkpoint &checkpoint)
    {
        (void)checkpoint;
    }

    /**
     * Number of table banks modeled for multi-branch-per-cycle
     * prediction; 0 means unbanked (the fetch engine treats the
     * predictor as ideally multiported and never charges a port
     * conflict).
     */
    virtual unsigned bankCount() const { return 0; }

    /**
     * Bank @p record's table lookup falls in, in [0, bankCount()).
     * Only meaningful when bankCount() > 0. Two branches in one fetch
     * bundle must hit disjoint banks or the bundle is split.
     */
    virtual unsigned bankOf(const trace::BranchRecord &record) const
    {
        (void)record;
        return 0;
    }

    /** Short identifying name ("gshare", "variable length path"...). */
    virtual std::string name() const = 0;

    /**
     * Hardware budget of the predictor *table(s)* in bytes, the
     * quantity the paper equalizes when comparing predictors.
     */
    virtual std::size_t sizeBytes() const = 0;
};

/** Predicts conditional branch directions. */
class ConditionalPredictor : public Predictor
{
  public:
    /**
     * Predict the direction of @p branch (record fields other than
     * pc must not be consulted — they are the oracle outcome).
     */
    virtual bool predict(const trace::BranchRecord &branch) = 0;

    /** Train the tables with the resolved outcome. */
    virtual void update(const trace::BranchRecord &branch) = 0;
};

/** Predicts indirect branch targets. */
class IndirectPredictor : public Predictor
{
  public:
    /**
     * Predict the target of @p branch (only pc may be consulted).
     * @return predicted full target address
     */
    virtual std::uint64_t predict(const trace::BranchRecord &branch) = 0;

    /** Train the tables with the resolved target. */
    virtual void update(const trace::BranchRecord &branch) = 0;
};

/**
 * Reconstruct a full 64-bit target from a stored low-32-bit entry,
 * taking the upper bits from the fetch address — the paper stores only
 * the lower 32 bits of Alpha targets in the predictor tables and takes
 * the rest from the current fetch address (footnote, Section 5.2.2).
 */
inline std::uint64_t
widenTarget(std::uint32_t stored, std::uint64_t fetch_pc)
{
    return (fetch_pc & 0xffffffff00000000ULL) | stored;
}

} // namespace pred
} // namespace vlp

#endif // VLPSIM_PREDICTORS_PREDICTOR_H
