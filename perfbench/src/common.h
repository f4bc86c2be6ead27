/**
 * @file
 * Shared pieces of vlpbench, the end-to-end benchmark: run options,
 * results, statistics, child-process jobs, and the host/build stamp.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.h"

namespace perfbench {

/** Worker threads of every cold job and client connections of the
 *  serve load (the sizing host's nproc). */
inline constexpr unsigned benchJobs = 4;

/** A seed no tuning has used: a later gain claim is re-checked on it. */
inline constexpr std::uint64_t heldOutSeed = 9001;

/** One `run` invocation: which workload, how long, traced or not. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    /** Scratch directory for stores, corpora, sockets and job files. */
    std::string workDir;
    /** This executable (re-executed for cold jobs). */
    std::string self;
    /** The vlpsim CLI (serve daemon). */
    std::string vlpsim;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Count one attempted operation; @p ok false counts a failure
     *  and records @p why. */
    void check(bool ok, const std::string &why);
};

Outcome runPaperCold(const RunConfig &config);
Outcome runCorpusCold(const RunConfig &config);
Outcome runServeWarm(const RunConfig &config);

/** `job` subcommand entry points (run in a fresh child process). */
int paperColdJob(const std::string &dir, bool traced, bool setup_only);
int corpusColdJob(const std::string &dir, const std::string &corpus,
                  bool traced, bool setup_only);

// --- statistics -----------------------------------------------------

double median(std::vector<double> values);

/** Nearest-rank percentile @p p (0-100] of @p values. */
double percentile(std::vector<double> values, double p);

/** Tail latency: the highest of p99.9/p99/p95/p90/p75/p50 with at
 *  least ten samples beyond it, else the maximum (p100). */
struct Tail
{
    double value = 0.0;
    double percentile = 100.0;
    std::size_t samples = 0;
};
Tail tail(std::vector<double> values);

// --- child jobs -----------------------------------------------------

/** A finished child process. */
struct ChildResult
{
    /** Parent-side wall time from spawn to exit (s). */
    double wall = 0.0;
    /** Spawn instant (monotonic seconds). */
    double spawned = 0.0;
    /** User + system CPU of the child (s). */
    double cpu = 0.0;
    /** Peak resident set of the child (MB). */
    double peakRssMb = 0.0;
    bool exitedOk = false;
    /** key -> value lines the child wrote to its result file. */
    std::map<std::string, std::string> values;

    double number(const std::string &key) const;
    const std::string &text(const std::string &key) const;
};

/** Spawn @p argv, wait for it, and read @p result_path. */
ChildResult runChild(const std::vector<std::string> &argv,
                     const std::string &result_path);

/** Write key value lines for the parent. */
void writeValues(const std::string &path,
                 const std::map<std::string, std::string> &values);

std::string formatNumber(double value);

/** 16-hex FNV-1a digest of @p bytes. */
std::string digest(const std::string &bytes);

/** Remove and recreate @p dir. */
void freshDirectory(const std::string &dir);

// --- per-layer metrics ----------------------------------------------

/** Per-layer metric names the traced run reports, in print order. */
const std::vector<std::pair<std::string, std::string>> &layerMetricUnits();

/**
 * Aggregate a traced job's spans into the layer metrics, keyed like
 * layerMetricUnits(). Spans whose names start with "bench." are the
 * benchmark's own structure and count toward no layer.
 * @param wall    the traced job's wall time
 * @param workers threads the job ran on (coverage denominator)
 */
std::map<std::string, double>
layerValues(const std::map<std::string, SpanTotals> &totals, double wall,
            unsigned workers);

// --- stamp ----------------------------------------------------------

/** Host and build facts stamped onto every result. */
std::vector<std::pair<std::string, std::string>> stamp(std::uint64_t seed);

/** True when the step-1 kernel dispatches to its AVX-512 path (the
 *  same CPU-feature test src/core/profiler.cc makes). */
bool avx512Step1();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
