/**
 * @file
 * Fetch-bundle front-end sweep (ours — not a paper table): runs the
 * FetchEngine at fetch widths m ∈ {1, 2, 4} over gshare,
 * the fixed length path predictor (per-benchmark tuned length), and
 * the variable length path predictor, reporting branch throughput and
 * IPC next to the misprediction rate. The VLP slot carries an HFNT so
 * its §4.3 re-predict bubbles are charged in-line, and the FLP/VLP
 * counter tables (and the HFNT) are banked m ways, so same-bank
 * structural hazards split bundles.
 *
 * Every engine run doubles as an equivalence tripwire: every
 * fetch-bundle configuration must reproduce the retire-order
 * Simulator's branch and misprediction counts bit for bit, or the
 * binary aborts — speculation may move cycles around, never accuracy.
 */

#include "bench_common.h"

#include "core/hfnt.h"
#include "core/path_predictor.h"
#include "core/profiler.h"
#include "predictors/budget.h"
#include "predictors/gshare.h"
#include "sim/frontend.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "workload/benchmarks.h"

namespace {

using namespace vlp;

constexpr std::size_t budgetBytes = 16384;
constexpr unsigned hfntIndexBits = 10;

/** One fresh predictor trio (engine runs must not share state). */
struct Trio
{
    pred::GsharePredictor gshare;
    core::PathConditionalPredictor flp;
    core::PathConditionalPredictor vlp;

    Trio(unsigned k, unsigned tuned_length,
         const core::HashAssignment &assignment)
        : gshare(k), flp(k, tuned_length), vlp(k, assignment)
    {
    }

    void
    registerWith(sim::FetchEngine &engine)
    {
        engine.addConditional(&gshare);
        engine.addConditional(&flp);
        engine.addConditional(&vlp);
    }
};

/** Abort unless @p actual matches the Simulator's counts exactly. */
void
requireEquivalent(const std::string &benchmark, const std::string &mode,
                  const std::vector<sim::PredictorResult> &expected,
                  const std::vector<sim::PredictorResult> &actual)
{
    if (expected.size() != actual.size())
        util::fatal("front-end equivalence tripwire: result count "
                    "mismatch on " + benchmark + " (" + mode + ")");
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (expected[i].branches != actual[i].branches
            || expected[i].mispredictions != actual[i].mispredictions)
            util::fatal("front-end equivalence tripwire: "
                        + expected[i].name + " diverged on "
                        + benchmark + " (" + mode + ")");
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Driver driver(
        "bench_frontend", "Fetch-bundle front-end sweep",
        "16K byte conditional predictors; m-way banked tables and "
        "HFNT; 10-cycle flush, 1-cycle re-predict bubble");
    return driver.run(argc, argv, [](sim::ParallelRunner &runner,
                                     sim::Report &report) {
        sim::Section &section = report.addSection("frontend");
        section.columns = {{"benchmark"},
                           {"predictor"},
                           {"m"},
                           {"mispredict %"},
                           {"branches/cycle"},
                           {"IPC"},
                           {"re-predict bubbles"},
                           {"bank conflicts"},
                           {"bundles"}};

        const std::vector<std::string> names = {"gcc", "go", "perl",
                                                "m88ksim"};
        const std::vector<unsigned> widths = {1, 2, 4};
        const std::vector<std::string> labels = {
            sim::names::gshare, sim::names::flp, sim::names::vlp};

        const auto rows = runner.map<std::vector<std::vector<sim::Cell>>>(
            names.size(),
            [&](sim::ExperimentContext &context, std::size_t i) {
                const std::string &name = names[i];
                const auto &spec = workload::findBenchmark(name);
                const unsigned k =
                    pred::conditionalIndexBits(budgetBytes);
                const core::HashAssignment &assignment =
                    context.assignment(spec, k, false);
                const unsigned tuned =
                    context.sweep(spec, k, false).bestLength();
                const auto test_trace =
                    context.trace(spec, workload::InputKind::Test);

                // Retire-order reference: today's Simulator.
                Trio reference(k, tuned, assignment);
                sim::Simulator simulator;
                simulator.addConditional(&reference.gshare);
                simulator.addConditional(&reference.flp);
                simulator.addConditional(&reference.vlp);
                test_trace->reset();
                simulator.run(*test_trace);
                const auto expected = simulator.conditionalResults();
                for (const auto &result : expected)
                    runner.addPredictions(result.branches);

                // The sweep: each width is a fresh engine,
                // and a tripwire holds its accuracy to the reference.
                std::vector<std::vector<sim::Cell>> result_rows;
                for (unsigned m : widths) {
                    sim::FrontendParameters parameters;
                    parameters.bundleWidth = m;

                    Trio trio(k, tuned, assignment);
                    trio.flp.setBanks(m);
                    trio.vlp.setBanks(m);
                    core::HashFunctionNumberTable hfnt(hfntIndexBits);
                    hfnt.setBanks(m);

                    sim::FetchEngine engine(parameters);
                    trio.registerWith(engine);
                    engine.attachHfnt(
                        2, &hfnt,
                        [&assignment](const trace::BranchRecord &r) {
                            return assignment.lookup(r.pc);
                        });
                    test_trace->reset();
                    engine.run(*test_trace);
                    requireEquivalent(
                        name, "fetch-bundle m=" + std::to_string(m),
                        expected, engine.conditionalResults());

                    for (std::size_t p = 0; p < labels.size(); ++p) {
                        const sim::FrontendResult &timing =
                            engine.conditionalTiming(p);
                        const double instructions =
                            static_cast<double>(timing.branches)
                            * parameters.instructionsPerBranch;
                        result_rows.push_back(std::vector<sim::Cell>{
                            sim::Cell::text(name),
                            sim::Cell::text(labels[p]),
                            sim::Cell::count(m),
                            sim::Cell::percent(
                                util::percent(timing.mispredictions,
                                              timing.branches)),
                            sim::Cell::real(timing.branchesPerCycle(),
                                            3),
                            sim::Cell::real(timing.ipc(instructions),
                                            2),
                            sim::Cell::count(timing.repredictEvents),
                            sim::Cell::count(timing.bankConflicts),
                            sim::Cell::count(timing.bundles),
                        });
                    }
                }
                return result_rows;
            });

        for (std::size_t i = 0; i < names.size(); ++i)
            for (const auto &cells : rows[i])
                section.addRow(names[i],
                               std::vector<sim::Cell>(cells));
        section.footer =
            "\nAccuracy is bit-identical to the retire-order "
            "simulator at every width (enforced); wider bundles only "
            "buy throughput until flushes and bank conflicts eat the "
            "slots.\n";
    });
}
