/**
 * @file
 * Report builders shared between bench binaries and the golden-file
 * tests.
 *
 * bench_table2, bench_fig5_6, bench_fig7_8 and bench_fig9 are the
 * byte-identity reference binaries: tests/test_report.cpp builds the
 * same reports through these functions and asserts the ASCII sink
 * reproduces the committed stdout (tests/golden/) at --jobs 1 and
 * --jobs 4.
 */

#ifndef VLPSIM_BENCH_PAPER_REPORTS_H
#define VLPSIM_BENCH_PAPER_REPORTS_H

#include "sim/parallel.h"
#include "sim/report.h"

namespace bench {

/** Banner text of bench_table2. */
inline constexpr char table2Title[] =
    "Table 2: Path Length Used for Fixed Length Predictor";
inline constexpr char table2Configuration[] =
    "profile inputs, average over all 16 benchmarks";

/** Banner text of bench_fig5_6. */
inline constexpr char fig5_6Title[] =
    "Figures 5 & 6: Conditional Misprediction Rates";
inline constexpr char fig5_6Configuration[] =
    "16K byte predictor, test inputs";

/** Banner text of bench_fig7_8. */
inline constexpr char fig7_8Title[] =
    "Figures 7 & 8: Indirect Misprediction Rates";
inline constexpr char fig7_8Configuration[] =
    "2K byte predictor, test inputs; '*' marks the 8 "
    "indirect-heavy benchmarks of Table 3";

/** Banner text of bench_fig9. */
inline constexpr char fig9Title[] =
    "Figure 9: Conditional Misprediction Rates for Gcc";
inline constexpr char fig9Configuration[] =
    "predictor sizes 1K to 256K bytes, test input";

/** Fill @p report with Table 2's sections (conditional and indirect
 *  best path lengths per table size). */
void buildTable2(vlp::sim::ParallelRunner &runner,
                 vlp::sim::Report &report);

/** Fill @p report with Figures 5 & 6's sections (per-benchmark
 *  conditional rates at 16K bytes plus the reduction summary). */
void buildFig5_6(vlp::sim::ParallelRunner &runner,
                 vlp::sim::Report &report);

/** Fill @p report with Figures 7 & 8's sections (per-benchmark
 *  indirect rates at 2K bytes, CHP path/pattern vs fixed and variable
 *  length path). */
void buildFig7_8(vlp::sim::ParallelRunner &runner,
                 vlp::sim::Report &report);

/** Fill @p report with Figure 9's section (gcc conditional rates at
 *  1K to 256K bytes: gshare, fixed length path at the global and the
 *  tuned length, and variable length path). */
void buildFig9(vlp::sim::ParallelRunner &runner,
               vlp::sim::Report &report);

} // namespace bench

#endif // VLPSIM_BENCH_PAPER_REPORTS_H
