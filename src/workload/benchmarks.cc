/**
 * @file
 * The 16 benchmark parameterizations.
 *
 * Static branch counts come from the paper's Table 1. The structural
 * knobs (dispatch loops, behaviour mixes, noise levels) are calibrated
 * so the *shape* of the trace matches each program's published
 * character: interpreters (li, perl, python, gs) are dominated by
 * indirect dispatch; go and compress are noisy and hard to predict;
 * m88ksim and vortex are highly predictable; and the dynamic
 * indirect-to-conditional ratios track Table 1.
 */

#include "workload/benchmarks.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/logging.h"
#include "workload/behavior.h"

namespace vlp {
namespace workload {

std::uint64_t
BenchmarkSpec::dynamicBudget(double extra) const
{
    // Casting NaN, infinity or anything past 2^64 to an integer is
    // undefined, and NaN would slip past the floor below.
    if (!std::isfinite(extra) || extra <= 0.0)
        util::fatal("trace scale must be finite and positive, got "
                    + std::to_string(extra));
    const double scaled = static_cast<double>(paperDynamicCond)
        * baseScale * util::workloadScale() * extra;
    if (!(scaled < 0x1p64))
        util::fatal("trace scale is too large: " + std::to_string(extra));
    return scaled < 1000.0 ? 1000 : static_cast<std::uint64_t>(scaled);
}

namespace {

/** Deterministic 64-bit name hash (FNV-1a). */
std::uint64_t
nameHash(const std::string &name)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (char ch : name) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * Common spec assembly: Table 1 numbers plus structural knobs; input
 * sets are derived deterministically from the benchmark name with a
 * mild distribution shift between profile and test.
 */
BenchmarkSpec
makeSpec(const std::string &name, bool is_spec, bool indirect_heavy,
         std::uint64_t dyn_cond, unsigned static_cond,
         std::uint64_t dyn_ind, unsigned static_ind,
         StructureParams structure)
{
    BenchmarkSpec spec;
    spec.name = name;
    spec.isSpec = is_spec;
    spec.indirectHeavy = indirect_heavy;
    spec.paperDynamicCond = dyn_cond;
    spec.paperDynamicIndirect = dyn_ind;
    spec.paperStaticCond = static_cond;
    spec.paperStaticInd = static_ind;

    structure.structureSeed = mix64(nameHash(name));
    structure.targetStaticCond = std::max(
        60u, static_cast<unsigned>(static_cond * staticScale));
    structure.targetStaticInd = std::max(
        3u, static_cast<unsigned>(static_ind * 0.5));

    // Global noise calibration: the per-benchmark knobs above express
    // each program's *relative* character; this scaling sets the
    // absolute level so baseline misprediction rates land in the
    // published range (see EXPERIMENTS.md).
    structure.condNoise *= 0.35;
    structure.biasHigh = structure.biasLow
        + 0.32 * (structure.biasHigh - structure.biasLow);
    structure.tripMin = std::max(10u, structure.tripMin * 3);
    structure.tripMax = std::max(structure.tripMin,
                                 std::min(160u, structure.tripMax * 4));
    structure.callProb *= 0.6;
    // Indirect calibration: bound the dispatch context space so table
    // pressure matches published indirect misprediction ranges —
    // Markov order at most 2, moderate handler fan-out.
    structure.markovOrderMin = std::min(structure.markovOrderMin, 2u);
    structure.markovOrderMax = std::min(structure.markovOrderMax, 2u);
    structure.dispatchFanMin = std::max(8u, structure.dispatchFanMin / 2);
    structure.dispatchFanMax = std::max(structure.dispatchFanMin,
                                        structure.dispatchFanMax / 2);

    spec.structure = structure;

    const std::uint64_t hash = nameHash(name);
    spec.profileInput.seed = mix64(hash ^ 0x70726f66696c65ULL);
    spec.profileInput.noiseScale = 1.0;
    spec.profileInput.tripScale = 1.0;
    spec.testInput.seed = mix64(hash ^ 0x74657374ULL);
    // Shift the test distribution so profiling generalization, not
    // memorization, is measured.
    spec.testInput.noiseScale = 1.0 + 0.15 * ((hash >> 8) % 3) / 2.0;
    spec.testInput.tripScale = 0.85 + 0.15 * ((hash >> 16) % 4);
    return spec;
}

std::vector<BenchmarkSpec>
buildSuite()
{
    std::vector<BenchmarkSpec> suite;
    StructureParams p;

    // --- 099.go: game-tree search; large, noisy, few indirects.
    p = StructureParams{};
    p.loopWeight = 0.22; p.pathWeight = 0.16;
    p.patternWeight = 0.13; p.biasedWeight = 0.49;
    p.biasLow = 0.08; p.biasHigh = 0.42;
    p.iidBiasFrac = 0.75;
    p.condNoise = 0.08;
    p.pathDepthMax = 20;
    p.tripMin = 2; p.tripMax = 12;
    p.dispatchLoops = 1;
    p.dispatchFanMin = 12; p.dispatchFanMax = 24;
    p.dispatchTripMin = 100; p.dispatchTripMax = 350;
    p.switchFanMin = 3; p.switchFanMax = 8;
    p.indCallSites = 2;
    p.utilFunctions = 16; p.phaseFunctions = 10;
    suite.push_back(makeSpec("go", true, false,
                             17'600'000, 4770, 91'400, 11, p));

    // --- 124.m88ksim: CPU simulator; extremely regular.
    p = StructureParams{};
    p.loopWeight = 0.40; p.pathWeight = 0.28;
    p.patternWeight = 0.20; p.biasedWeight = 0.12;
    p.biasLow = 0.01; p.biasHigh = 0.08;
    p.condNoise = 0.010;
    p.pathDepthMax = 16;
    p.tripMin = 3; p.tripMax = 32;
    p.dispatchLoops = 1;
    p.dispatchFanMin = 32; p.dispatchFanMax = 48;
    p.dispatchTripMin = 500; p.dispatchTripMax = 1400;
    p.markovOrderMin = 1; p.markovOrderMax = 3;
    p.indNoise = 0.06;
    p.indCallSites = 2;
    p.utilFunctions = 8; p.phaseFunctions = 6;
    suite.push_back(makeSpec("m88ksim", true, true,
                             92'600'000, 1095, 1'010'000, 14, p));

    // --- 126.gcc: compiler; huge static footprint, many switches.
    p = StructureParams{};
    p.loopWeight = 0.26; p.pathWeight = 0.32;
    p.patternWeight = 0.16; p.biasedWeight = 0.26;
    p.biasLow = 0.02; p.biasHigh = 0.25;
    p.condNoise = 0.04;
    p.pathDepthMax = 24;
    p.tripMin = 2; p.tripMax = 16;
    p.dispatchLoops = 6;
    p.dispatchFanMin = 24; p.dispatchFanMax = 64;
    p.dispatchTripMin = 500; p.dispatchTripMax = 1700;
    p.markovOrderMin = 1; p.markovOrderMax = 4;
    p.switchFanMin = 4; p.switchFanMax = 14;
    p.indCallSites = 8;
    p.utilFunctions = 40; p.phaseFunctions = 14;
    suite.push_back(makeSpec("gcc", true, true,
                             27'600'000, 14419, 990'000, 192, p));

    // --- 129.compress: tiny kernel; data-dependent bit twiddling.
    p = StructureParams{};
    p.loopWeight = 0.28; p.pathWeight = 0.08;
    p.patternWeight = 0.10; p.biasedWeight = 0.54;
    p.biasLow = 0.12; p.biasHigh = 0.45;
    p.iidBiasFrac = 0.80;
    p.condNoise = 0.07;
    p.pathDepthMax = 8;
    p.tripMin = 4; p.tripMax = 48;
    p.dispatchLoops = 0;
    p.indCallSites = 0;
    p.switchFanMin = 3; p.switchFanMax = 6;
    p.utilFunctions = 4; p.phaseFunctions = 3;
    suite.push_back(makeSpec("compress", true, false,
                             11'700'000, 371, 160, 3, p));

    // --- 130.li: Lisp interpreter; dispatch-dominated.
    p = StructureParams{};
    p.loopWeight = 0.24; p.pathWeight = 0.36;
    p.patternWeight = 0.16; p.biasedWeight = 0.24;
    p.biasLow = 0.02; p.biasHigh = 0.22;
    p.condNoise = 0.03;
    p.pathDepthMax = 28;
    p.tripMin = 2; p.tripMax = 10;
    p.dispatchLoops = 2;
    p.dispatchFanMin = 32; p.dispatchFanMax = 56;
    p.dispatchTripMin = 60; p.dispatchTripMax = 140;
    p.markovOrderMin = 1; p.markovOrderMax = 4;
    p.indNoise = 0.10;
    p.indCallSites = 3;
    p.utilFunctions = 8; p.phaseFunctions = 5;
    suite.push_back(makeSpec("li", true, true,
                             32'400'000, 517, 1'120'000, 11, p));

    // --- 132.ijpeg: image codec; regular loops, marker switches.
    p = StructureParams{};
    p.loopWeight = 0.42; p.pathWeight = 0.18;
    p.patternWeight = 0.12; p.biasedWeight = 0.28;
    p.biasLow = 0.03; p.biasHigh = 0.30;
    p.iidBiasFrac = 0.45;
    p.condNoise = 0.05;
    p.pathDepthMax = 12;
    p.tripMin = 4; p.tripMax = 64;
    p.dispatchLoops = 1;
    p.dispatchFanMin = 12; p.dispatchFanMax = 24;
    p.dispatchTripMin = 120; p.dispatchTripMax = 320;
    p.switchFanMin = 3; p.switchFanMax = 10;
    p.indCallSites = 4;
    p.utilFunctions = 10; p.phaseFunctions = 6;
    suite.push_back(makeSpec("ijpeg", true, false,
                             18'200'000, 1161, 98'200, 134, p));

    // --- 134.perl: interpreter; the most dispatch-heavy program.
    p = StructureParams{};
    p.loopWeight = 0.24; p.pathWeight = 0.34;
    p.patternWeight = 0.16; p.biasedWeight = 0.26;
    p.biasLow = 0.01; p.biasHigh = 0.14;
    p.condNoise = 0.012;
    p.pathDepthMax = 28;
    p.tripMin = 2; p.tripMax = 12;
    p.dispatchLoops = 4;
    p.dispatchFanMin = 40; p.dispatchFanMax = 72;
    p.dispatchTripMin = 250; p.dispatchTripMax = 700;
    p.markovOrderMin = 1; p.markovOrderMax = 3;
    p.indNoise = 0.06;
    p.indCallSites = 4;
    p.utilFunctions = 10; p.phaseFunctions = 6;
    suite.push_back(makeSpec("perl", true, true,
                             21'400'000, 1536, 2'270'000, 21, p));

    // --- 147.vortex: OO database; predictable, call-heavy.
    p = StructureParams{};
    p.loopWeight = 0.34; p.pathWeight = 0.32;
    p.patternWeight = 0.18; p.biasedWeight = 0.16;
    p.biasLow = 0.01; p.biasHigh = 0.05;
    p.condNoise = 0.008;
    p.pathDepthMax = 20;
    p.tripMin = 5; p.tripMax = 30;
    p.dispatchLoops = 1;
    p.dispatchFanMin = 12; p.dispatchFanMax = 20;
    p.dispatchTripMin = 300; p.dispatchTripMax = 800;
    p.switchFanMin = 3; p.switchFanMax = 8;
    p.indCallSites = 6;
    p.callProb = 0.2;
    p.utilFunctions = 24; p.phaseFunctions = 10;
    suite.push_back(makeSpec("vortex", true, false,
                             25'800'000, 6529, 110'000, 33, p));

    // --- chess (GNU Chess): game tree, mildly noisy.
    p = StructureParams{};
    p.loopWeight = 0.28; p.pathWeight = 0.28;
    p.patternWeight = 0.14; p.biasedWeight = 0.30;
    p.biasLow = 0.04; p.biasHigh = 0.30;
    p.iidBiasFrac = 0.50;
    p.condNoise = 0.06;
    p.pathDepthMax = 18;
    p.tripMin = 2; p.tripMax = 16;
    p.dispatchLoops = 1;
    p.dispatchFanMin = 12; p.dispatchFanMax = 20;
    p.dispatchTripMin = 40; p.dispatchTripMax = 100;
    p.switchFanMin = 3; p.switchFanMax = 6;
    p.indCallSites = 2;
    p.utilFunctions = 10; p.phaseFunctions = 8;
    suite.push_back(makeSpec("chess", false, false,
                             52'400'000, 1736, 110'000, 7, p));

    // --- groff: C++ troff; virtual dispatch everywhere.
    p = StructureParams{};
    p.loopWeight = 0.26; p.pathWeight = 0.34;
    p.patternWeight = 0.14; p.biasedWeight = 0.26;
    p.biasLow = 0.02; p.biasHigh = 0.20;
    p.condNoise = 0.03;
    p.pathDepthMax = 24;
    p.tripMin = 2; p.tripMax = 14;
    p.dispatchLoops = 4;
    p.dispatchFanMin = 24; p.dispatchFanMax = 48;
    p.dispatchTripMin = 500; p.dispatchTripMax = 1300;
    p.switchPathFrac = 0.6; p.switchMarkovFrac = 0.25;
    p.indNoise = 0.08;
    p.indCallSites = 30;
    p.indCallFanMin = 2; p.indCallFanMax = 10;
    p.utilFunctions = 16; p.phaseFunctions = 8;
    suite.push_back(makeSpec("groff", false, true,
                             22'400'000, 2322, 2'010'000, 172, p));

    // --- gs (Ghostscript): PostScript interpreter; huge switch count.
    p = StructureParams{};
    p.loopWeight = 0.26; p.pathWeight = 0.32;
    p.patternWeight = 0.14; p.biasedWeight = 0.28;
    p.biasLow = 0.02; p.biasHigh = 0.24;
    p.condNoise = 0.035;
    p.pathDepthMax = 26;
    p.tripMin = 2; p.tripMax = 18;
    p.dispatchLoops = 6;
    p.dispatchFanMin = 32; p.dispatchFanMax = 64;
    p.dispatchTripMin = 400; p.dispatchTripMax = 1200;
    p.switchFanMin = 4; p.switchFanMax = 12;
    p.indNoise = 0.12;
    p.indCallSites = 24;
    p.utilFunctions = 24; p.phaseFunctions = 10;
    suite.push_back(makeSpec("gs", false, true,
                             29'400'000, 5476, 1'630'000, 504, p));

    // --- pgp: crypto; data-dependent, little path structure.
    p = StructureParams{};
    p.loopWeight = 0.36; p.pathWeight = 0.14;
    p.patternWeight = 0.12; p.biasedWeight = 0.38;
    p.biasLow = 0.05; p.biasHigh = 0.38;
    p.iidBiasFrac = 0.60;
    p.condNoise = 0.06;
    p.pathDepthMax = 8;
    p.tripMin = 4; p.tripMax = 48;
    p.dispatchLoops = 0;
    p.switchFanMin = 3; p.switchFanMax = 6;
    p.indCallSites = 1;
    p.utilFunctions = 8; p.phaseFunctions = 5;
    suite.push_back(makeSpec("pgp", false, false,
                             16'500'000, 1444, 180, 5, p));

    // --- plot (gnuplot): expression evaluation + drawing loops.
    p = StructureParams{};
    p.loopWeight = 0.34; p.pathWeight = 0.28;
    p.patternWeight = 0.14; p.biasedWeight = 0.24;
    p.biasLow = 0.02; p.biasHigh = 0.20;
    p.condNoise = 0.03;
    p.pathDepthMax = 20;
    p.tripMin = 4; p.tripMax = 40;
    p.dispatchLoops = 2;
    p.dispatchFanMin = 24; p.dispatchFanMax = 40;
    p.dispatchTripMin = 600; p.dispatchTripMax = 1600;
    p.markovOrderMin = 1; p.markovOrderMax = 3;
    p.indNoise = 0.05;
    p.indCallSites = 6;
    p.utilFunctions = 10; p.phaseFunctions = 6;
    suite.push_back(makeSpec("plot", false, true,
                             25'700'000, 1417, 500'000, 43, p));

    // --- python: bytecode interpreter.
    p = StructureParams{};
    p.loopWeight = 0.24; p.pathWeight = 0.34;
    p.patternWeight = 0.16; p.biasedWeight = 0.26;
    p.biasLow = 0.02; p.biasHigh = 0.24;
    p.condNoise = 0.035;
    p.pathDepthMax = 28;
    p.tripMin = 2; p.tripMax = 12;
    p.dispatchLoops = 5;
    p.dispatchFanMin = 48; p.dispatchFanMax = 96;
    p.dispatchTripMin = 300; p.dispatchTripMax = 800;
    p.markovOrderMin = 2; p.markovOrderMax = 5;
    p.indNoise = 0.14;
    p.indCallSites = 16;
    p.utilFunctions = 14; p.phaseFunctions = 8;
    suite.push_back(makeSpec("python", false, true,
                             33'800'000, 2578, 2'020'000, 168, p));

    // --- ss (SimpleScalar): out-of-order simulator.
    p = StructureParams{};
    p.loopWeight = 0.34; p.pathWeight = 0.30;
    p.patternWeight = 0.16; p.biasedWeight = 0.20;
    p.biasLow = 0.02; p.biasHigh = 0.18;
    p.condNoise = 0.03;
    p.pathDepthMax = 20;
    p.tripMin = 2; p.tripMax = 24;
    p.dispatchLoops = 1;
    p.dispatchFanMin = 32; p.dispatchFanMax = 48;
    p.dispatchTripMin = 350; p.dispatchTripMax = 900;
    p.switchFanMin = 4; p.switchFanMax = 10;
    p.indCallSites = 4;
    p.utilFunctions = 12; p.phaseFunctions = 8;
    suite.push_back(makeSpec("ss", false, false,
                             22'300'000, 1997, 180'000, 29, p));

    // --- tex: document formatter; big switches, moderate indirects.
    p = StructureParams{};
    p.loopWeight = 0.28; p.pathWeight = 0.28;
    p.patternWeight = 0.16; p.biasedWeight = 0.28;
    p.biasLow = 0.03; p.biasHigh = 0.28;
    p.condNoise = 0.045;
    p.pathDepthMax = 22;
    p.tripMin = 2; p.tripMax = 18;
    p.dispatchLoops = 2;
    p.dispatchFanMin = 24; p.dispatchFanMax = 56;
    p.dispatchTripMin = 250; p.dispatchTripMax = 650;
    p.switchFanMin = 4; p.switchFanMax = 12;
    p.indCallSites = 4;
    p.utilFunctions = 14; p.phaseFunctions = 8;
    suite.push_back(makeSpec("tex", false, false,
                             20'600'000, 2970, 310'000, 42, p));

    return suite;
}

} // anonymous namespace

const std::vector<BenchmarkSpec> &
benchmarkSuite()
{
    static const std::vector<BenchmarkSpec> suite = buildSuite();
    return suite;
}

const BenchmarkSpec &
findBenchmark(const std::string &name)
{
    for (const auto &spec : benchmarkSuite()) {
        if (spec.name == name)
            return spec;
    }
    util::fatal("unknown benchmark: " + name);
}

std::vector<std::string>
indirectHeavyNames()
{
    std::vector<std::string> names;
    for (const auto &spec : benchmarkSuite()) {
        if (spec.indirectHeavy)
            names.push_back(spec.name);
    }
    return names;
}

Program
buildProgram(const BenchmarkSpec &spec)
{
    return generateProgram(spec.structure);
}

trace::VectorTraceSource
generateTrace(const BenchmarkSpec &spec, InputKind kind,
              double extraScale)
{
    Program program = buildProgram(spec);
    const InputSet &input = kind == InputKind::Profile
        ? spec.profileInput : spec.testInput;
    ExecutionEngine engine(program, input);
    RunLimits limits;
    limits.conditionalBudget = spec.dynamicBudget(extraScale);
    return engine.runToTrace(limits);
}

} // namespace workload
} // namespace vlp
