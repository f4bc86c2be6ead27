/**
 * @file
 * Cold-workload measurement loop.
 */

#include "cold.h"

#include <filesystem>

namespace perfbench {

namespace {

ChildResult
runJob(const RunConfig &config, const ColdWorkload &workload, bool traced,
       bool setup_only)
{
    const std::string dir = config.workDir + "/job";
    freshDirectory(dir);
    return runChild(workload.argv(dir, traced, setup_only),
                    dir + "/result.txt");
}

} // anonymous namespace

Outcome
runCold(const RunConfig &config, const ColdWorkload &workload)
{
    Outcome outcome;
    std::vector<double> setups, walls, cpus, rss;
    std::map<std::string, std::vector<double>> layers;
    std::vector<double> traced_walls;
    std::vector<double> utilization;

    const double start = now();
    for (;;) {
        const double round_start = now();
        // Setup is timed on a setup-only start before each job, so its
        // samples spread over the whole run like the jobs' do.
        const ChildResult setup = runJob(config, workload, false, true);
        if (!setup.exitedOk)
            throw std::runtime_error("setup-only job failed");
        setups.push_back(setup.number("ready") - setup.spawned);

        const ChildResult job = runJob(config, workload, false, false);
        outcome.check(job.exitedOk, "untraced job exited with an error");
        if (!job.exitedOk)
            break;
        workload.check(job, outcome);
        walls.push_back(job.wall);
        cpus.push_back(job.cpu);
        rss.push_back(job.peakRssMb);
        utilization.push_back(job.cpu / (job.wall * benchJobs));

        if (config.traced) {
            const ChildResult traced = runJob(config, workload, true, false);
            bool same = traced.exitedOk;
            std::string why = "traced job exited with an error";
            for (const std::string &key : workload.sameWork) {
                if (!same)
                    break;
                if (traced.text(key) != job.text(key)) {
                    same = false;
                    why = "traced job's " + key + " " + traced.text(key)
                        + " differs from the untraced " + job.text(key);
                }
            }
            for (const std::string &layer : workload.idleLayers) {
                if (same && traced.number("layer." + layer) != 0.0) {
                    same = false;
                    why = "layer " + layer + " predicted idle reads "
                        + traced.text("layer." + layer);
                }
            }
            outcome.check(same, why);
            if (!same)
                break;
            traced_walls.push_back(traced.wall);
            for (const auto &[key, value] : traced.values) {
                if (key.rfind("layer.", 0) == 0)
                    layers[key.substr(6)].push_back(std::stod(value));
            }
        }
        const double round = now() - round_start;
        if (now() - start + round > config.seconds)
            break;
    }

    if (!config.traced) {
        const double wall = median(walls);
        outcome.add("setup_s", median(setups), "s");
        outcome.add("wall_s", wall, "s");
        outcome.add("cpu_s", median(cpus), "s");
        outcome.add("peak_rss_mb", median(rss), "MB");
        outcome.add("requests_per_s", wall > 0 ? 1.0 / wall : 0.0, "req/s");
        outcome.add("latency_p50_ms", wall * 1e3, "ms");
        // A run holds fewer than 100 jobs, where the ten-beyond rule
        // would pick the median; the cold tail is the p90 job.
        outcome.add("latency_tail_ms", percentile(walls, 90.0) * 1e3, "ms");
        outcome.notes.push_back("latency_tail_ms is p90 of "
                                + std::to_string(walls.size()) + " jobs");
        std::string list;
        for (std::size_t i = 0; i < walls.size(); ++i) {
            char job[64];
            std::snprintf(job, sizeof job, "%s%.3f/%.3f",
                          i == 0 ? "" : " ", walls[i], cpus[i]);
            list += job;
        }
        outcome.notes.push_back("job wall/cpu s: " + list);
        return outcome;
    }

    for (const auto &[name, unit] : layerMetricUnits()) {
        double value = median(layers[name]);
        if (name == "sim.core_utilization")
            value = median(utilization);
        else if (name == "tracing_overhead")
            value = median(traced_walls) / median(walls) - 1.0;
        outcome.add(name, value, unit);
    }
    return outcome;
}

} // namespace perfbench
