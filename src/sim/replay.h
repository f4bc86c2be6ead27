/**
 * @file
 * The comparison replay: one comparison row's predictors over one
 * evaluation trace, in one monomorphic record loop.
 *
 * A row replays the class's baselines (gshare, or the Chang-Hao-Patt
 * path and pattern target caches) beside fixed length path, optionally
 * the tuned fixed length, and variable length path. The three path
 * predictors have the same index width and see the same records, so
 * their path histories are equal: they share one PathIndexBank,
 * observed once per record, and each reads its own length from it. The
 * baselines are called on their concrete types with a fused
 * predict-and-update, and VLP reads each record's length from its edge's
 * slot (core/replay_feed.h).
 *
 * sim::Simulator runs the same predictors through the virtual
 * predict/update/observe protocol (predictors/predictor.h) and stays
 * the retire-order reference: the replay oracle in tests/test_replay.cpp
 * holds every row's counts equal to it.
 */

#ifndef VLPSIM_SIM_REPLAY_H
#define VLPSIM_SIM_REPLAY_H

#include <string>

#include "core/hash_assignment.h"
#include "core/path_history.h"
#include "sim/experiment.h"
#include "trace/trace_source.h"

namespace vlp {
namespace sim {

/**
 * Replay @p eval_trace from its start and assemble the row named
 * @p name: the baselines of the class @p indirect selects, fixed
 * length path at @p global_length, "fixed length path (tuned)" at
 * @p tuned_length when @p include_tuned, and variable length path
 * with @p assignment, all with 2^@p index_bits-entry tables. The path
 * predictors build their history with @p history (comparisons use the
 * paper's default).
 */
ComparisonRow replayComparison(const std::string &name,
                               trace::TraceSource &eval_trace,
                               bool indirect, unsigned index_bits,
                               unsigned global_length,
                               unsigned tuned_length,
                               const core::HashAssignment &assignment,
                               bool include_tuned,
                               const core::PathHistoryOptions &history = {});

} // namespace sim
} // namespace vlp

#endif // VLPSIM_SIM_REPLAY_H
