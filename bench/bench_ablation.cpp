/**
 * @file
 * Ablation studies for the design choices the paper calls out:
 *
 *  1. rotating targets before XOR (Section 3.3) vs plain XOR;
 *  2. storing return targets in the THB (Section 3.2; the paper found
 *     accuracy "does not strongly depend" on it and left them out);
 *  3. the number of profiling candidates per branch (the paper uses 3)
 *     and step-2 iterations (the paper uses 7);
 *  4. implementing only a subset of hash functions
 *     {1,2,4,8,16,32} (Section 3.1's cost-reduction note);
 *  5. HFNT accuracy: how often the pipelined predictor would have to
 *     re-predict (Section 4.3).
 */

#include "bench_common.h"

#include "core/hfnt.h"
#include "core/path_predictor.h"
#include "core/profiler.h"
#include "predictors/budget.h"
#include "workload/benchmarks.h"

namespace {

using namespace vlp;

constexpr std::size_t budgetBytes = 16384;

/** Evaluate a conditional VLP configuration on gcc's test input. */
double
evaluateVlp(trace::VectorTraceSource &profile_trace,
            trace::VectorTraceSource &test_trace,
            core::ProfileOptions options,
            const std::vector<unsigned> *allowed_lengths = nullptr,
            std::uint64_t *branches_out = nullptr)
{
    core::Profiler profiler(options, false);
    profile_trace.reset();
    core::HashAssignment assignment = profiler.profile(profile_trace);

    if (allowed_lengths != nullptr) {
        // Clamp every assignment down to the nearest implemented hash
        // function (Section 3.1: a subset may be implemented at
        // reduced benefit).
        auto clamp = [&](unsigned length) {
            unsigned best = allowed_lengths->front();
            for (unsigned candidate : *allowed_lengths) {
                if (candidate <= length)
                    best = candidate;
            }
            return best;
        };
        core::HashAssignment clamped(clamp(assignment.defaultLength()));
        for (const auto &[pc, length] : assignment.table())
            clamped.assign(pc, clamp(length));
        assignment = clamped;
    }

    core::PathConditionalPredictor vlp(options.indexBits, assignment,
                                       options.history);
    test_trace.reset();
    trace::BranchRecord record;
    std::uint64_t branches = 0, misses = 0;
    while (test_trace.next(record)) {
        if (record.isConditional()) {
            ++branches;
            if (vlp.predict(record) != record.taken)
                ++misses;
            vlp.update(record);
        }
        vlp.observe(record);
    }
    if (branches_out != nullptr)
        *branches_out = branches;
    return util::percent(misses, branches);
}

/** One ablation configuration: a label plus how to profile/evaluate. */
struct AblationConfig
{
    std::string label;
    core::ProfileOptions options;
    /** Clamp assignments to the {1,2,4,8,16,32} hash subset. */
    bool restrictSubset = false;
    /** Profile on the test input itself (generalization oracle). */
    bool oracle = false;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Driver driver(
        "bench_ablation",
        "Ablations: rotation, returns-in-THB, profiling "
        "parameters, hash-function subset, HFNT",
        "gcc, 16K byte conditional predictor, test input");
    return driver.run(argc, argv, [](sim::ParallelRunner &runner,
                                     sim::Report &report) {
    const auto &spec = workload::findBenchmark("gcc");

    core::ProfileOptions base;
    base.indexBits = pred::conditionalIndexBits(budgetBytes);

    std::vector<AblationConfig> configs;
    configs.push_back({"baseline (rotate, no returns, 3 candidates, "
                       "7 iterations, 32 hash functions)",
                       base, false, false});
    {
        core::ProfileOptions options = base;
        options.history.rotateTargets = false;
        configs.push_back({"no target rotation (plain XOR)", options,
                           false, false});
    }
    {
        core::ProfileOptions options = base;
        options.history.includeReturns = true;
        configs.push_back({"return targets stored in THB", options,
                           false, false});
    }
    for (const unsigned candidates : {1u, 2u, 5u}) {
        core::ProfileOptions options = base;
        options.candidates = candidates;
        options.iterations = std::max(7u, candidates);
        configs.push_back({std::to_string(candidates)
                               + " candidate(s) per branch",
                           options, false, false});
    }
    for (const unsigned iterations : {1u, 3u}) {
        core::ProfileOptions options = base;
        options.iterations = iterations;
        configs.push_back({std::to_string(iterations)
                               + " step-2 iteration(s)",
                           options, false, false});
    }
    configs.push_back({"hash functions restricted to {1,2,4,8,16,32}",
                       base, true, false});
    {
        // Section 6 future-work idea: save/restore history across
        // subroutine calls (after Jacobson et al.).
        core::ProfileOptions options = base;
        options.history.historyStack = true;
        configs.push_back({"history stack across calls (Section 6 "
                           "extension)",
                           options, false, false});
    }
    // Oracle profiling: select lengths on the *test* input itself.
    // The gap to the baseline row is the cost of profile-to-test
    // generalization (the paper's §3.4 motivation for resampling
    // user data à la ProfileMe).
    configs.push_back({"oracle: profiled on the test input itself",
                       base, false, true});

    // Every configuration re-profiles gcc from scratch, so the config
    // grid is the shard unit; every trace() call hands the worker its
    // own cursor over the shared records.
    const auto rates = runner.map<double>(
        configs.size(),
        [&](sim::ExperimentContext &context, std::size_t i) {
            const AblationConfig &config = configs[i];
            const auto profile_trace = context.trace(
                spec, config.oracle ? workload::InputKind::Test
                                    : workload::InputKind::Profile);
            const auto test_trace =
                context.trace(spec, workload::InputKind::Test);
            const std::vector<unsigned> subset = {1, 2, 4, 8, 16, 32};
            std::uint64_t branches = 0;
            const double rate = evaluateVlp(
                *profile_trace, *test_trace, config.options,
                config.restrictSubset ? &subset : nullptr, &branches);
            runner.addPredictions(branches);
            return rate;
        });

    sim::Section &ablations = report.addSection("ablations");
    ablations.columns = {{"configuration"}, {"VLP mispredict (%)"}};
    for (std::size_t i = 0; i < configs.size(); ++i)
        ablations.addRow(configs[i].label,
                         {sim::Cell::text(configs[i].label),
                          sim::Cell::percent(rates[i])});

    // --- HFNT re-predict rate (Section 4.3) --------------------------
    {
        auto &context = runner.context();
        const auto profile_ptr =
            context.trace(spec, workload::InputKind::Profile);
        const auto test_ptr =
            context.trace(spec, workload::InputKind::Test);
        trace::VectorTraceSource &profile_trace = *profile_ptr;
        trace::VectorTraceSource &test_trace = *test_ptr;
        core::Profiler profiler(base, false);
        profile_trace.reset();
        const core::HashAssignment assignment =
            profiler.profile(profile_trace);

        sim::Section &hfnt_section = report.addSection("hfnt");
        hfnt_section.caption =
            "\nHFNT re-predict rates (prediction uses the "
            "table's number; decode reveals the actual):\n";
        hfnt_section.columns = {{"HFNT entries"},
                                {"size (bytes)"},
                                {"mismatch rate (%)"}};
        for (const unsigned bits : {6u, 8u, 10u, 12u}) {
            core::HashFunctionNumberTable hfnt(bits);
            test_trace.reset();
            trace::BranchRecord record;
            while (test_trace.next(record)) {
                if (!record.isConditional())
                    continue;
                hfnt.predictNumber(record.pc);
                hfnt.update(record.pc, assignment.lookup(record.pc));
            }
            hfnt_section.addRow(
                std::to_string(1u << bits),
                {
                    sim::Cell::count(1u << bits),
                    sim::Cell::count(hfnt.sizeBytes()),
                    sim::Cell::percent(hfnt.mismatchRate()),
                });
        }
    }
    });
}
