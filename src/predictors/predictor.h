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
 * sim::FetchEngine (DESIGN.md §17) drives predictors through the same
 * protocol: a wide front end's wrong-path history advance is repaired
 * before the branch retires, so its effect on what the tables learn is
 * nil, and the engine charges a misprediction as a flush penalty
 * rather than re-enacting the repair.
 */

#ifndef VLPSIM_PREDICTORS_PREDICTOR_H
#define VLPSIM_PREDICTORS_PREDICTOR_H

#include <cstdint>
#include <string>

#include "trace/branch_record.h"

namespace vlp {
namespace pred {

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
