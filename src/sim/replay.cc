/**
 * @file
 * The comparison replay.
 */

#include "sim/replay.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/replay_feed.h"
#include "predictors/gshare.h"
#include "predictors/target_cache.h"
#include "util/logging.h"
#include "util/stats.h"

namespace vlp {
namespace sim {

namespace {

using core::detail::ConditionalClass;
using core::detail::IndirectClass;

/** A conditional row's baseline: gshare. */
struct ConditionalBaselines
{
    static constexpr std::array<const char *, 1> names = {names::gshare};

    explicit ConditionalBaselines(unsigned index_bits) : gshare(index_bits) {}

    /** Predict and train on @p record, counting misses. */
    void
    access(const trace::BranchRecord &record, std::uint64_t *misses)
    {
        misses[0] += gshare.predictAndUpdate(record) != record.taken;
    }

    void observe(const trace::BranchRecord &record) { gshare.observe(record); }

    pred::GsharePredictor gshare;
};

/** An indirect row's baselines: the Chang-Hao-Patt target caches. */
struct IndirectBaselines
{
    static constexpr std::array<const char *, 2> names = {
        names::chpPath, names::chpPattern};

    explicit IndirectBaselines(unsigned index_bits)
        : path(index_bits), pattern(index_bits)
    {
    }

    void
    access(const trace::BranchRecord &record, std::uint64_t *misses)
    {
        misses[0] += path.predictAndUpdate(record) != record.nextPc;
        misses[1] += pattern.predictAndUpdate(record) != record.nextPc;
    }

    void
    observe(const trace::BranchRecord &record)
    {
        path.observe(record);
        pattern.observe(record);
    }

    pred::PathTargetCache path;
    pred::PatternTargetCache pattern;
};

/** The row of one class: see replayComparison(). */
template <typename Class, typename Baselines>
ComparisonRow
replayRow(const std::string &name, trace::TraceSource &eval_trace,
          unsigned index_bits, unsigned global_length,
          unsigned tuned_length, const core::HashAssignment &assignment,
          bool include_tuned, const core::PathHistoryOptions &history)
{
    // One history for the three path predictors; each length clamped
    // to its depth, as the standalone predictors clamp it.
    core::PathIndexBank bank(index_bits, history);
    const auto clamp = [&](unsigned length) {
        return static_cast<std::uint8_t>(std::min(length, bank.depth()));
    };
    const unsigned flp_length = clamp(global_length);
    const unsigned tuned = clamp(tuned_length);

    // The assignment as per-branch lengths, then the default for every
    // other pc.
    std::vector<std::uint64_t> branches;
    std::vector<std::uint8_t> branch_lengths;
    branches.reserve(assignment.size());
    branch_lengths.reserve(assignment.size() + 1);
    for (const auto &[pc, length] : assignment.table()) {
        branches.push_back(pc);
        branch_lengths.push_back(clamp(length));
    }
    branch_lengths.push_back(clamp(assignment.defaultLength()));
    core::detail::ReplayFeed feed(eval_trace, std::move(branches));
    const std::vector<std::uint8_t> lengths =
        core::detail::slotLengths(feed, branch_lengths);

    Baselines baselines(index_bits);
    typename Class::Table flp = Class::table(index_bits);
    typename Class::Table flp_tuned = Class::table(index_bits);
    typename Class::Table vlp = Class::table(index_bits);

    // misses: the baselines, then FLP, tuned FLP and VLP.
    constexpr std::size_t path = Baselines::names.size();
    std::array<std::uint64_t, path + 3> misses{};
    std::uint64_t branches_seen = 0;
    feed.replay<Class>(
        [&](const trace::BranchRecord &record, std::uint32_t slot) {
            ++branches_seen;
            baselines.access(record, misses.data());
            misses[path] +=
                !Class::access(flp, bank.index(flp_length), record);
            if (include_tuned)
                misses[path + 1] +=
                    !Class::access(flp_tuned, bank.index(tuned), record);
            misses[path + 2] +=
                !Class::access(vlp, bank.index(lengths[slot]), record);
        },
        [&](const trace::BranchRecord &record) {
            baselines.observe(record);
            bank.observe(record);
        });

    ComparisonRow row;
    row.benchmark = name;
    const auto add = [&](const char *predictor, std::uint64_t missed) {
        RateEntry entry;
        entry.predictor = predictor;
        entry.branches = branches_seen;
        entry.mispredictions = missed;
        entry.rate = util::percent(missed, branches_seen);
        row.entries.push_back(std::move(entry));
    };
    for (std::size_t i = 0; i < path; ++i)
        add(Baselines::names[i], misses[i]);
    add(names::flp, misses[path]);
    if (include_tuned)
        add(names::flpTuned, misses[path + 1]);
    add(names::vlp, misses[path + 2]);
    return row;
}

} // anonymous namespace

ComparisonRow
replayComparison(const std::string &name, trace::TraceSource &eval_trace,
                 bool indirect, unsigned index_bits, unsigned global_length,
                 unsigned tuned_length,
                 const core::HashAssignment &assignment, bool include_tuned,
                 const core::PathHistoryOptions &history)
{
    for (const unsigned length : {global_length, tuned_length}) {
        if (length < 1 || length > core::maxPathLength)
            util::fatal("comparison path length out of range");
    }
    if (indirect) {
        return replayRow<IndirectClass, IndirectBaselines>(
            name, eval_trace, index_bits, global_length, tuned_length,
            assignment, include_tuned, history);
    }
    return replayRow<ConditionalClass, ConditionalBaselines>(
        name, eval_trace, index_bits, global_length, tuned_length,
        assignment, include_tuned, history);
}

} // namespace sim
} // namespace vlp
