/**
 * @file
 * The 16 benchmark models of the paper's evaluation (8 SPECint95 + 8
 * non-SPEC programs), realized as parameterizations of the synthetic
 * program generator.
 *
 * Static branch counts follow the paper's Table 1; dynamic counts are
 * the paper's scaled by 1/20 by default (multiplied further by
 * VLPSIM_SCALE). Every benchmark has a distinct *profile* and *test*
 * input set, as the paper's profiling methodology requires.
 */

#ifndef VLPSIM_WORKLOAD_BENCHMARKS_H
#define VLPSIM_WORKLOAD_BENCHMARKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_source.h"
#include "workload/engine.h"
#include "workload/generator.h"

namespace vlp {
namespace workload {

/** Which input set to run. */
enum class InputKind { Profile, Test };

/** A benchmark: structure parameters plus run budgets and inputs. */
struct BenchmarkSpec
{
    /** Short name used throughout the paper ("gcc", "perl", ...). */
    std::string name;
    /** True for the eight SPECint95 members. */
    bool isSpec = false;
    /** True for the eight indirect-branch-heavy programs of Table 3. */
    bool indirectHeavy = false;
    /** Structure parameters fed to generateProgram(). */
    StructureParams structure;
    /** Paper dynamic conditional branch count (unscaled). */
    std::uint64_t paperDynamicCond = 0;
    /** Paper dynamic indirect branch count (unscaled), for reference. */
    std::uint64_t paperDynamicIndirect = 0;
    /** Paper static conditional branch count (Table 1). */
    unsigned paperStaticCond = 0;
    /** Paper static indirect branch count (Table 1). */
    unsigned paperStaticInd = 0;
    /** Profile input set. */
    InputSet profileInput;
    /** Test input set. */
    InputSet testInput;

    /**
     * Dynamic conditional-branch budget for one run: the paper count
     * scaled by baseScale (1/20) times VLPSIM_SCALE times @p extra,
     * at least 1000.
     * @throws std::runtime_error unless @p extra is finite and
     *         positive, and the budget fits in 64 bits
     */
    std::uint64_t dynamicBudget(double extra = 1.0) const;
};

/**
 * Version of the synthetic trace generator, part of every artifact-
 * cache key. Bump it whenever generateTrace() output can change for an
 * unchanged (spec, kind, scale) so stale cached profiles are
 * invalidated instead of reused.
 */
constexpr unsigned generatorVersion = 1;

/** Default scale between paper dynamic counts and simulated counts. */
constexpr double baseScale = 1.0 / 20.0;

/**
 * Scale between paper static branch counts and generated ones. Statics
 * are scaled less aggressively than dynamics (1/3 vs 1/20) so that
 * per-branch training counts stay within a small factor of the
 * paper's; see DESIGN.md §3.
 */
constexpr double staticScale = 1.0 / 3.0;

/** The full 16-benchmark suite, in the paper's presentation order. */
const std::vector<BenchmarkSpec> &benchmarkSuite();

/**
 * Find a benchmark by name.
 * @throws std::runtime_error for unknown names
 */
const BenchmarkSpec &findBenchmark(const std::string &name);

/** Names of all benchmarks; @p spec_only restricts to SPECint95. */
std::vector<std::string> benchmarkNames(bool spec_only = false);

/** Names of the 8 indirect-branch-heavy benchmarks (Table 3). */
std::vector<std::string> indirectHeavyNames();

/** Build the benchmark's program (deterministic per spec). */
Program buildProgram(const BenchmarkSpec &spec);

/**
 * Generate a branch trace for @p spec on the given input set.
 *
 * @param spec  benchmark to run
 * @param kind  profile or test input
 * @param extraScale multiplies the dynamic budget (1.0 = default)
 */
trace::VectorTraceSource generateTrace(const BenchmarkSpec &spec,
                                       InputKind kind,
                                       double extraScale = 1.0);

} // namespace workload
} // namespace vlp

#endif // VLPSIM_WORKLOAD_BENCHMARKS_H
