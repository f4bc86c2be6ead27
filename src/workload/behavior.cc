/**
 * @file
 * Branch behaviour implementations.
 */

#include "workload/behavior.h"

#include <cassert>

namespace vlp {
namespace workload {

std::uint64_t
mix64(std::uint64_t value)
{
    value ^= value >> 30;
    value *= 0xbf58476d1ce4e5b9ULL;
    value ^= value >> 27;
    value *= 0x94d049bb133111ebULL;
    value ^= value >> 31;
    return value;
}

std::size_t
concentratedTarget(std::uint64_t key, std::size_t fan)
{
    // Map a hashed context to a target with a skewed (cubed-uniform)
    // distribution: distinct contexts pile onto a few popular targets,
    // as measured in real interpreters and virtual-call sites, instead
    // of spreading uniformly over the whole table.
    const double u = (key >> 11) * 0x1.0p-53;
    auto target = static_cast<std::size_t>(u * u * u
                                           * static_cast<double>(fan));
    return target >= fan ? fan - 1 : target;
}

LoopBehavior::LoopBehavior(unsigned minTrip, unsigned maxTrip,
                           bool regular)
    : minTrip_(minTrip), maxTrip_(maxTrip), regular_(regular)
{
    assert(minTrip >= 1 && maxTrip >= minTrip);
}

unsigned
LoopBehavior::drawTrip(BehaviorContext &context)
{
    unsigned trip;
    if (regular_) {
        // Re-draw the trip count only rarely; phases of a program tend
        // to iterate over same-sized structures for a while.
        if (stickyUses_ == 0) {
            stickyTrip_ = static_cast<unsigned>(
                context.rng->nextInRange(minTrip_, maxTrip_));
            stickyUses_ = 256;
        }
        --stickyUses_;
        trip = stickyTrip_;
    } else {
        trip = static_cast<unsigned>(
            context.rng->nextInRange(minTrip_, maxTrip_));
    }
    trip = static_cast<unsigned>(trip * context.tripScale);
    return trip < 1 ? 1 : trip;
}

bool
LoopBehavior::evaluate(BehaviorContext &context)
{
    if (remaining_ == 0)
        remaining_ = drawTrip(context);
    // Taken = loop again. The final iteration falls through.
    --remaining_;
    return remaining_ != 0;
}

PathCorrelatedBehavior::PathCorrelatedBehavior(unsigned depth, bool dual,
                                               double noise,
                                               std::uint64_t seed)
    : depth_(depth), dual_(dual), noise_(noise), seed_(seed)
{
    assert(depth >= 1 && depth <= pathHistoryDepth);
    assert(noise >= 0.0 && noise <= 1.0);
}

bool
PathCorrelatedBehavior::evaluate(BehaviorContext &context)
{
    std::uint64_t key = mix64(context.pathHistory[depth_ - 1] ^ seed_);
    if (dual_ && depth_ >= 2)
        key = mix64(key ^ context.pathHistory[(depth_ - 1) / 2]);
    const bool outcome = (key & 1) != 0;
    if (context.rng->nextBool(noise_ * context.noiseScale))
        return !outcome;
    return outcome;
}

PatternCorrelatedBehavior::PatternCorrelatedBehavior(unsigned depth,
                                                     double noise,
                                                     std::uint64_t seed)
    : depth_(depth), noise_(noise), seed_(seed)
{
    assert(depth >= 1 && depth <= 32);
    assert(noise >= 0.0 && noise <= 1.0);
}

bool
PatternCorrelatedBehavior::evaluate(BehaviorContext &context)
{
    const std::uint64_t pattern =
        context.outcomeHistory & ((std::uint64_t{1} << depth_) - 1);
    const bool outcome = (mix64(pattern ^ seed_) & 1) != 0;
    if (context.rng->nextBool(noise_ * context.noiseScale))
        return !outcome;
    return outcome;
}

BiasedBehavior::BiasedBehavior(double takenProbability, unsigned window)
    : takenProbability_(takenProbability), window_(window)
{
    assert(takenProbability >= 0.0 && takenProbability <= 1.0);
    assert(window >= 1);
}

bool
BiasedBehavior::evaluate(BehaviorContext &context)
{
    if (window_ == 1)
        return context.rng->nextBool(takenProbability_);
    if (remaining_ == 0) {
        value_ = context.rng->nextBool(takenProbability_);
        // Jitter the hold time so flips of different branches don't
        // synchronize.
        remaining_ = static_cast<unsigned>(
            context.rng->nextInRange(window_ / 2, window_ * 3 / 2));
        if (remaining_ == 0)
            remaining_ = 1;
    }
    --remaining_;
    return value_;
}

MarkovBehavior::MarkovBehavior(unsigned order, double noise,
                               std::uint64_t seed)
    : order_(order), noise_(noise), seed_(seed), history_(order, 0)
{
    assert(order >= 1 && order <= 8);
    assert(noise >= 0.0 && noise <= 1.0);
}

std::size_t
MarkovBehavior::evaluate(BehaviorContext &context, std::size_t fan)
{
    assert(fan >= 1);
    std::size_t target;
    if (context.rng->nextBool(noise_ * context.noiseScale)) {
        target = context.rng->nextZipf(fan, 1.2);
    } else {
        std::uint64_t key = seed_;
        for (std::size_t symbol : history_)
            key = mix64(key ^ (symbol + 1));
        target = concentratedTarget(mix64(key), fan);
    }
    // Shift the branch's own target history.
    for (std::size_t i = history_.size(); i-- > 1;)
        history_[i] = history_[i - 1];
    history_[0] = target;
    return target;
}

PathDispatchBehavior::PathDispatchBehavior(unsigned depth, double noise,
                                           std::uint64_t seed)
    : depth_(depth), noise_(noise), seed_(seed)
{
    assert(depth >= 1 && depth <= pathHistoryDepth);
    assert(noise >= 0.0 && noise <= 1.0);
}

std::size_t
PathDispatchBehavior::evaluate(BehaviorContext &context, std::size_t fan)
{
    assert(fan >= 1);
    if (context.rng->nextBool(noise_ * context.noiseScale))
        return context.rng->nextZipf(fan, 1.2);
    const std::uint64_t key =
        mix64(context.pathHistory[depth_ - 1] ^ seed_);
    return concentratedTarget(key, fan);
}

RandomDispatchBehavior::RandomDispatchBehavior(double skew)
    : skew_(skew)
{
    assert(skew >= 0.0);
}

std::size_t
RandomDispatchBehavior::evaluate(BehaviorContext &context,
                                 std::size_t fan)
{
    assert(fan >= 1);
    return context.rng->nextZipf(fan, skew_);
}

} // namespace workload
} // namespace vlp
