/**
 * @file
 * The measurement loop shared by the two cold workloads: each job is
 * a fresh child process with an empty artifact store, so its wall
 * time, CPU time and peak RSS come straight from wait4().
 */

#ifndef PERFBENCH_COLD_H
#define PERFBENCH_COLD_H

#include <functional>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct ColdWorkload
{
    /** Child command line for a job in @p dir. */
    std::function<std::vector<std::string>(const std::string &dir,
                                           bool traced, bool setup_only)>
        argv;
    /** Check one untraced job's outputs, counting its operations. */
    std::function<void(const ChildResult &job, Outcome &outcome)> check;
    /** Result keys a traced job must reproduce exactly. */
    std::vector<std::string> sameWork;
    /** Layer counts that must read zero on this workload. */
    std::vector<std::string> idleLayers;
};

/**
 * Untraced: run a setup-only start and a job, round after round,
 * until the time budget is spent, and report the end-to-end medians.
 * Traced: add a traced job to every round and report the traced
 * per-layer medians.
 */
Outcome runCold(const RunConfig &config, const ColdWorkload &workload);

} // namespace perfbench

#endif // PERFBENCH_COLD_H
