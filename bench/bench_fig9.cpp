/**
 * @file
 * Regenerates Figure 9: conditional branch misprediction rates for gcc
 * over a range of predictor sizes (1K to 256K bytes) — gshare, fixed
 * length path, fixed length path (tuned), and variable length path.
 * The global fixed length at each size is derived from profile-input
 * sweeps over the whole suite, exactly as in the paper's methodology.
 */

#include "bench_common.h"
#include "paper_reports.h"

int
main(int argc, char **argv)
{
    bench::Driver driver("bench_fig9", bench::fig9Title,
                         bench::fig9Configuration);
    return driver.run(argc, argv, bench::buildFig9);
}
