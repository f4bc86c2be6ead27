/**
 * @file
 * Internal to core: the step-1 kernels behind Profiler::runStep1().
 *
 * Step 1 has two kernels that produce bit-identical results: a
 * portable one (one path length at a time) and, on x86-64 CPUs with
 * AVX-512, one that runs eight lengths per instruction. runStep1()
 * always takes the fastest kernel the CPU runs; this header lets tests
 * run the portable kernel on an AVX-512 host too.
 */

#ifndef VLPSIM_CORE_STEP1_KERNEL_H
#define VLPSIM_CORE_STEP1_KERNEL_H

#include <cstdint>
#include <unordered_map>

#include "core/profiler.h"
#include "trace/trace_source.h"

namespace vlp {
namespace core {
namespace detail {

/** A step-1 kernel. */
enum class Step1Kernel
{
    portable,
    avx512,
};

/** The kernel Profiler::runStep1() uses on this CPU. */
Step1Kernel nativeStep1Kernel();

/**
 * Profiler::runStep1()'s sweep of @p profile_trace for one branch
 * class with an explicit @p kernel (which this CPU must run).
 */
void runStep1(Step1Kernel kernel, bool indirect,
              trace::TraceSource &profile_trace,
              const ProfileOptions &options, FixedLengthSweep &sweep,
              std::unordered_map<std::uint64_t, BranchProfile> &profiles);

} // namespace detail
} // namespace core
} // namespace vlp

#endif // VLPSIM_CORE_STEP1_KERNEL_H
