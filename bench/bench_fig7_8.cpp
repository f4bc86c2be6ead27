/**
 * @file
 * Regenerates Figures 7 and 8: indirect branch misprediction rates
 * with a 2K byte predictor — the Chang-Hao-Patt path and pattern
 * target caches vs fixed and variable length path — for the SPEC
 * (Fig. 7) and non-SPEC (Fig. 8) benchmarks. The paper marks the 8
 * benchmarks with the highest indirect branch frequencies in bold; we
 * mark them with '*'.
 */

#include "bench_common.h"
#include "paper_reports.h"

int
main(int argc, char **argv)
{
    bench::Driver driver("bench_fig7_8", bench::fig7_8Title,
                         bench::fig7_8Configuration);
    return driver.run(argc, argv, bench::buildFig7_8);
}
