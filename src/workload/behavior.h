/**
 * @file
 * Branch behaviour models for the synthetic workload engine.
 *
 * Each static branch in a synthetic program owns a behaviour object that
 * decides, at execution time, the branch's outcome (conditional) or
 * target (indirect). The behaviours are designed so that the resulting
 * branch stream has the properties the paper's evaluation hinges on:
 *
 *  - loop branches whose predictability tracks their trip counts;
 *  - conditional branches whose outcome is a deterministic function of
 *    the *path* (the executed destinations of the previous d
 *    history-eligible branches) for per-branch depths d in 1..32 — these
 *    are the branches for which selecting the right path length matters;
 *  - conditional branches correlated with recent *outcomes* (pattern
 *    history), which gshare captures well;
 *  - data-dependent biased branches forming the noise floor;
 *  - indirect branches driven by order-m Markov processes over their own
 *    target stream (interpreters), by the path (virtual dispatch
 *    correlated with call sites), or by skewed random draws.
 *
 * Crucially, the "path" the behaviours condition on is maintained by the
 * engine under exactly the THB insertion policy of the paper (targets of
 * conditional and indirect branches; no unconditionals, no returns), so
 * a path predictor with a long-enough history can in principle learn
 * every path-correlated branch.
 */

#ifndef VLPSIM_WORKLOAD_BEHAVIOR_H
#define VLPSIM_WORKLOAD_BEHAVIOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace vlp {
namespace workload {

/**
 * Execution-time context handed to behaviours.
 *
 * The histories are owned by the engine; the scale knobs come from the
 * input set (profile vs test inputs differ in seed *and* in these
 * scales, so profiling generalization is honestly exercised).
 */
struct BehaviorContext
{
    /**
     * Executed destinations of the most recent history-eligible
     * branches; element 0 is the most recent. Always holds
     * @ref pathHistoryDepth entries (zero-filled at start).
     */
    const std::uint64_t *pathHistory = nullptr;
    /**
     * Outcomes of the most recent conditional branches packed into a
     * word; bit 0 is the most recent outcome.
     */
    std::uint64_t outcomeHistory = 0;
    /** Input-set random stream. */
    util::Rng *rng = nullptr;
    /** Multiplies behaviour noise probabilities (input-set knob). */
    double noiseScale = 1.0;
    /** Multiplies loop trip counts (input-set knob). */
    double tripScale = 1.0;
};

/** Number of path-history entries the engine maintains for behaviours. */
constexpr unsigned pathHistoryDepth = 32;

/**
 * Deterministically map a hashed context to one of @p fan targets with
 * a skewed popularity distribution (a few targets dominate).
 */
std::size_t concentratedTarget(std::uint64_t key, std::size_t fan);

/** SplitMix-style 64-bit finalizer used by all deterministic mappings. */
std::uint64_t mix64(std::uint64_t value);

/** Decides outcomes for one static conditional branch. */
class ConditionalBehavior
{
  public:
    virtual ~ConditionalBehavior() = default;

    /** Decide the outcome of one execution of the branch. */
    virtual bool evaluate(BehaviorContext &context) = 0;

    /** Clear per-branch mutable state before an independent run. */
    virtual void reset() {}

    /** Behaviour class name for diagnostics. */
    virtual const char *name() const = 0;
};

/** Decides target indices for one static indirect branch. */
class IndirectBehavior
{
  public:
    virtual ~IndirectBehavior() = default;

    /**
     * Decide which of the branch's @p fan targets is taken.
     * @return index in [0, fan)
     */
    virtual std::size_t evaluate(BehaviorContext &context,
                                 std::size_t fan) = 0;

    /** Clear per-branch mutable state before an independent run. */
    virtual void reset() {}

    /** Behaviour class name for diagnostics. */
    virtual const char *name() const = 0;
};

/**
 * A loop back-edge: taken (trip - 1) times, then not taken once, with a
 * fresh trip count drawn per loop entry. Models for/while loops; the
 * classic easy-for-everything branch except at loop exits.
 */
class LoopBehavior : public ConditionalBehavior
{
  public:
    /**
     * @param minTrip smallest trip count (>= 1)
     * @param maxTrip largest trip count (>= minTrip)
     * @param regular if true, trip counts are drawn once per program run
     *        phase and change rarely (highly predictable exits); if
     *        false, every loop entry draws a fresh uniform trip count
     */
    LoopBehavior(unsigned minTrip, unsigned maxTrip, bool regular);

    bool evaluate(BehaviorContext &context) override;

    void
    reset() override
    {
        remaining_ = 0;
        stickyTrip_ = 0;
        stickyUses_ = 0;
    }

    const char *name() const override { return "loop"; }

  private:
    unsigned drawTrip(BehaviorContext &context);

    unsigned minTrip_;
    unsigned maxTrip_;
    bool regular_;
    unsigned remaining_ = 0;
    unsigned stickyTrip_ = 0;
    unsigned stickyUses_ = 0;
};

/**
 * Outcome is a deterministic boolean function of the path entry at
 * distance @p depth (and, when @p dual, also of the entry halfway
 * there), flipped with probability @p noise.
 *
 * This models the real phenomenon behind path correlation (Young &
 * Smith): the branch's outcome is decided by *which context* — which
 * call site, which phase, which earlier decision — lies a certain
 * number of branches back. The determining token has low cardinality,
 * so a path predictor whose history is at least @p depth long learns
 * the branch with few table entries; a shorter history simply does not
 * contain the determining token and sees residual randomness. This is
 * the behaviour class that rewards selecting the path length per
 * branch.
 */
class PathCorrelatedBehavior : public ConditionalBehavior
{
  public:
    /**
     * @param depth distance (in history-eligible branches) of the path
     *        entry that determines the outcome, 1..32
     * @param dual  also depend on the entry at distance ceil(depth/2)
     * @param noise probability the deterministic outcome is flipped
     * @param seed  per-branch seed defining the boolean function
     */
    PathCorrelatedBehavior(unsigned depth, bool dual, double noise,
                           std::uint64_t seed);

    bool evaluate(BehaviorContext &context) override;

    const char *name() const override { return "path-correlated"; }

    /** Path depth the outcome depends on. */
    unsigned depth() const { return depth_; }

  private:
    unsigned depth_;
    bool dual_;
    double noise_;
    std::uint64_t seed_;
};

/**
 * Outcome is a deterministic boolean function of the last @p depth
 * conditional outcomes (pattern history), flipped with probability
 * @p noise. gshare-friendly: its global pattern history captures these
 * directly. Path histories capture them too (outcomes are encoded in the
 * executed destinations), so these don't penalize path predictors.
 */
class PatternCorrelatedBehavior : public ConditionalBehavior
{
  public:
    /**
     * @param depth pattern depth, 1..32
     * @param noise flip probability
     * @param seed  per-branch seed defining the boolean function
     */
    PatternCorrelatedBehavior(unsigned depth, double noise,
                              std::uint64_t seed);

    bool evaluate(BehaviorContext &context) override;

    const char *name() const override { return "pattern-correlated"; }

  private:
    unsigned depth_;
    double noise_;
    std::uint64_t seed_;
};

/**
 * Data-dependent branch: taken with a fixed probability.
 *
 * With window == 1 each execution draws independently — the
 * irreducible noise floor of every predictor. With window > 1 the
 * outcome is re-drawn only every ~window executions and held constant
 * in between, modelling conditions that are invariant over a loop or
 * phase (the common case in real programs: "biased" branches rarely
 * flip, so they leave global histories largely undisturbed).
 */
class BiasedBehavior : public ConditionalBehavior
{
  public:
    /**
     * @param takenProbability probability of being taken (per draw)
     * @param window mean executions between re-draws (1 = iid)
     */
    explicit BiasedBehavior(double takenProbability,
                            unsigned window = 1);

    bool evaluate(BehaviorContext &context) override;

    void
    reset() override
    {
        remaining_ = 0;
    }

    const char *name() const override { return "biased"; }

  private:
    double takenProbability_;
    unsigned window_;
    unsigned remaining_ = 0;
    bool value_ = false;
};

/**
 * Order-m Markov target stream over the branch's own recent targets:
 * with probability 1-noise the next target index is a fixed function of
 * the last m target indices; otherwise it is a Zipf-skewed random draw.
 * Models interpreter dispatch, where the next opcode is strongly
 * determined by the recent opcode sequence.
 */
class MarkovBehavior : public IndirectBehavior
{
  public:
    /**
     * @param order Markov order m (how many of the branch's own past
     *        targets determine the next one), 1..8
     * @param noise probability of a random draw instead
     * @param seed  per-branch seed defining the transition function
     */
    MarkovBehavior(unsigned order, double noise, std::uint64_t seed);

    std::size_t evaluate(BehaviorContext &context,
                         std::size_t fan) override;

    void
    reset() override
    {
        history_.assign(order_, 0);
    }

    const char *name() const override { return "markov"; }

    /** Markov order. */
    unsigned order() const { return order_; }

  private:
    unsigned order_;
    double noise_;
    std::uint64_t seed_;
    std::vector<std::size_t> history_;
};

/**
 * Target is a deterministic function of the path entry at distance
 * @p depth (with noise). Models virtual calls and function-pointer
 * dispatch whose receiver is determined by the calling context —
 * exactly the case path predictors excel at and pattern predictors
 * miss.
 */
class PathDispatchBehavior : public IndirectBehavior
{
  public:
    /**
     * @param depth distance of the path entry the target depends on,
     *        1..32
     * @param noise probability of a Zipf random draw instead
     * @param seed  per-branch seed defining the mapping
     */
    PathDispatchBehavior(unsigned depth, double noise,
                         std::uint64_t seed);

    std::size_t evaluate(BehaviorContext &context,
                         std::size_t fan) override;

    const char *name() const override { return "path-dispatch"; }

    /** Path depth the target depends on. */
    unsigned depth() const { return depth_; }

  private:
    unsigned depth_;
    double noise_;
    std::uint64_t seed_;
};

/**
 * Zipf-skewed random target: a handful of targets dominate but the
 * choice is data dependent. Hard for every predictor; a realistic model
 * of data-driven switch statements.
 */
class RandomDispatchBehavior : public IndirectBehavior
{
  public:
    /** @param skew Zipf exponent (larger = more dominated by target 0) */
    explicit RandomDispatchBehavior(double skew);

    std::size_t evaluate(BehaviorContext &context,
                         std::size_t fan) override;

    const char *name() const override { return "random-dispatch"; }

  private:
    double skew_;
};

} // namespace workload
} // namespace vlp

#endif // VLPSIM_WORKLOAD_BEHAVIOR_H
