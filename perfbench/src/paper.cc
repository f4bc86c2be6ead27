/**
 * @file
 * paper-cold: the Table 2 reproduction, then the Figure 9
 * reproduction, each the way bench_table2 / bench_fig9 run them: its
 * own sim::ParallelRunner at --jobs 4, an empty artifact store, the
 * fixed VLPSIM_SCALE, and the paper's 16 fixed benchmark models.
 *
 * The workload takes no seed: the global fixed length
 * (ParallelRunner::globalConditionalLength) averages over the fixed
 * workload::benchmarkSuite(), so there is no input to vary.
 */

#include <memory>
#include <sstream>

#include "bench_common.h"
#include "common.h"
#include "cold.h"
#include "paper_reports.h"
#include "predictors/budget.h"
#include "replica.h"
#include "sim/parallel.h"
#include "sim/report.h"
#include "store/artifact_store.h"
#include "util/logging.h"

namespace perfbench {

using namespace vlp;

namespace {

/**
 * Reference digests per VLPSIM_SCALE: util::fnv1a of the stdout of
 * `bench_table2 --jobs 4 --no-cache` and `bench_fig9 --jobs 4
 * --no-cache` at that scale, which the job's ASCII reports reproduce.
 */
struct Reference
{
    const char *scale;
    const char *table2;
    const char *fig9;
};
constexpr Reference references[] = {
    {"0.1", "67a655b457039d42", "bbe2b70cdbe7de53"},
    {"0.2", "c2ff73e299e95d7f", "257688893576970a"},
};

const char fig9Title[] = "Figure 9: Conditional Misprediction Rates for Gcc";
const char fig9Configuration[] =
    "predictor sizes 1K to 256K bytes, test input";
const std::size_t fig9Sizes[] = {1024, 4096, 16384, 65536, 262144};

sim::Report
skeleton(const char *title, const char *configuration)
{
    sim::Report report;
    report.title = title;
    report.configuration = configuration;
    report.banner = true;
    report.scale = util::workloadScale();
    return report;
}

/** The metadata bench::Driver::run appends (not part of the ASCII). */
void
finish(sim::Report &report, unsigned jobs, std::uint64_t predictions,
       const store::ArtifactStore &store)
{
    report.setMeta("jobs", std::uint64_t{jobs});
    report.setMeta("scale", util::formatDouble(report.scale, 3));
    report.setMeta("predictions", predictions);
    const store::StoreCounters counters = store.counters();
    report.setMeta("cacheHits", counters.hits);
    report.setMeta("cacheMisses", counters.misses);
    report.setMeta("cacheInserts", counters.inserts);
}

std::string
render(const sim::Report &report)
{
    Scope scope("sim.ReportSink.write");
    std::ostringstream out;
    sim::AsciiReportSink sink;
    sink.write(report, out);
    scope.setItems(out.str().size());
    return out.str();
}

sim::Section &
fig9Section(sim::Report &report)
{
    sim::Section &section = report.addSection("sizes");
    section.columns = {{"Size (KB)"},
                       {"gshare (%)"},
                       {"fixed length path (%)"},
                       {"fixed length path (tuned) (%)"},
                       {"variable length path (%)"},
                       {"global len"},
                       {"tuned len"}};
    return section;
}

std::vector<sim::Cell>
fig9Cells(std::size_t bytes, const sim::ComparisonRow &row,
          unsigned global_length, unsigned tuned_length)
{
    return {
        sim::Cell::real(bytes / 1024.0, 0),
        sim::Cell::percent(row.entry(sim::names::gshare).rate),
        sim::Cell::percent(row.entry(sim::names::flp).rate),
        sim::Cell::percent(row.entry(sim::names::flpTuned).rate),
        sim::Cell::percent(row.entry(sim::names::vlp).rate),
        sim::Cell::count(global_length),
        sim::Cell::count(tuned_length),
    };
}

const char fig9Footer[] =
    "\npaper series (approx.): gshare 13/8.8/7.5/6.5/6, "
    "VLP 6.5/4.3/3.6/3.2/3 — the paper's gcc headline is "
    "VLP 4.3% vs gshare 8.8% at 4K bytes\n";

/** bench_fig9's body. */
void
buildFig9(sim::ParallelRunner &runner, sim::Report &report)
{
    const auto &spec = workload::findBenchmark("gcc");
    sim::Section &section = fig9Section(report);
    const auto rows = runner.map<std::vector<sim::Cell>>(
        std::size(fig9Sizes),
        [&](sim::ExperimentContext &context, std::size_t i) {
            const std::size_t bytes = fig9Sizes[i];
            const unsigned global_length =
                context.globalConditionalLength(bytes);
            const unsigned tuned_length =
                context.conditionalSweep(spec,
                                         pred::conditionalIndexBits(bytes))
                    .bestLength();
            const auto row = sim::compareConditional(
                context, spec, bytes, global_length, true);
            for (const auto &entry : row.entries)
                runner.addPredictions(entry.branches);
            return fig9Cells(bytes, row, global_length, tuned_length);
        });
    for (std::size_t i = 0; i < rows.size(); ++i)
        section.addRow(std::to_string(fig9Sizes[i]),
                       std::vector<sim::Cell>(rows[i]));
    section.footer = fig9Footer;
}

/** buildTable2 over the traced replica. */
void
tracedTable2(TracedRunner &runner, sim::Report &report)
{
    for (const bool indirect : {false, true}) {
        sim::Section &section =
            report.addSection(indirect ? "indirect" : "conditional");
        section.caption = indirect ? "\nIndirect Branches\n"
                                   : "\nConditional Branches\n";
        section.columns = {{"Table Size (KB)"},
                           {"Path Length"},
                           {"avg mispredict (%)"},
                           {"paper length"}};
        const std::vector<std::size_t> sizes = indirect
            ? std::vector<std::size_t>{512, 2048, 8192, 32768}
            : std::vector<std::size_t>{1024, 4096, 16384, 65536, 262144};
        const std::vector<unsigned> paper = indirect
            ? std::vector<unsigned>{11, 21, 21, 21}
            : std::vector<unsigned>{6, 9, 14, 16, 23};
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            const auto average = runner.average(sizes[i], indirect);
            const unsigned best = argminLength(average);
            section.addRow(
                std::to_string(sizes[i]),
                {
                    sim::Cell::real(sizes[i] / 1024.0, indirect ? 1 : 0),
                    sim::Cell::count(best),
                    sim::Cell::percent(average[best - 1]),
                    sim::Cell::count(paper[i]),
                });
        }
    }
}

/** bench_fig9's body over the traced replica. */
void
tracedFig9(TracedRunner &runner, sim::Report &report)
{
    const auto &spec = workload::findBenchmark("gcc");
    sim::Section &section = fig9Section(report);
    std::vector<std::vector<sim::Cell>> rows(std::size(fig9Sizes));
    std::vector<std::uint64_t> predictions(rows.size(), 0);
    runner.pool.run(rows.size(), [&](unsigned worker, std::size_t i) {
        Scope item("bench.item");
        TracedContext &context = *runner.contexts[worker];
        const std::size_t bytes = fig9Sizes[i];
        const unsigned global_length = context.globalLength(bytes, false);
        const unsigned tuned_length =
            context.sweep(spec, pred::conditionalIndexBits(bytes), false)
                .bestLength();
        const auto row = tracedCompare(context, spec, bytes, global_length,
                                       true, false);
        for (const auto &entry : row.entries)
            predictions[i] += entry.branches;
        rows[i] = fig9Cells(bytes, row, global_length, tuned_length);
    });
    for (std::size_t i = 0; i < rows.size(); ++i) {
        runner.predictions += predictions[i];
        section.addRow(std::to_string(fig9Sizes[i]), std::move(rows[i]));
    }
    section.footer = fig9Footer;
}

void
recordCounters(std::map<std::string, std::string> &values,
               const std::string &prefix, std::uint64_t predictions,
               const store::ArtifactStore &store)
{
    const store::StoreCounters counters = store.counters();
    values[prefix + "_predictions"] = std::to_string(predictions);
    values[prefix + "_inserts"] = std::to_string(counters.inserts);
    values[prefix + "_misses"] = std::to_string(counters.misses);
    values[prefix + "_hits"] = std::to_string(counters.hits);
}

} // anonymous namespace

int
paperColdJob(const std::string &dir, bool traced, bool setup_only)
{
    std::map<std::string, std::string> values;
    const std::string result_path = dir + "/result.txt";

    auto store = openStore(dir + "/store-table2");
    std::unique_ptr<sim::ParallelRunner> runner;
    std::unique_ptr<TracedRunner> traced_runner;
    if (traced)
        traced_runner = std::make_unique<TracedRunner>(benchJobs, store);
    else {
        runner = std::make_unique<sim::ParallelRunner>(benchJobs);
        runner->setStore(store);
    }
    const double ready = now();
    values["ready"] = formatNumber(ready);
    if (setup_only) {
        writeValues(result_path, values);
        return 0;
    }

    std::unique_ptr<Tracer> tracer;
    if (traced)
        tracer = std::make_unique<Tracer>();

    std::string table2_text, fig9_text;
    {
        Scope job("bench.table2");
        sim::Report report =
            skeleton(bench::table2Title, bench::table2Configuration);
        if (traced) {
            tracedTable2(*traced_runner, report);
            finish(report, benchJobs, traced_runner->predictions, *store);
            recordCounters(values, "table2", traced_runner->predictions,
                           *store);
        } else {
            bench::buildTable2(*runner, report);
            finish(report, runner->jobs(), runner->predictions(), *store);
            recordCounters(values, "table2", runner->predictions(), *store);
        }
        table2_text = render(report);
    }
    runner.reset();
    traced_runner.reset();

    {
        Scope job("bench.fig9");
        auto fig9_store = openStore(dir + "/store-fig9");
        sim::Report report = skeleton(fig9Title, fig9Configuration);
        if (traced) {
            TracedRunner fig9_runner(benchJobs, fig9_store);
            tracedFig9(fig9_runner, report);
            finish(report, benchJobs, fig9_runner.predictions, *fig9_store);
            recordCounters(values, "fig9", fig9_runner.predictions,
                           *fig9_store);
        } else {
            sim::ParallelRunner fig9_runner(benchJobs);
            fig9_runner.setStore(fig9_store);
            buildFig9(fig9_runner, report);
            finish(report, fig9_runner.jobs(), fig9_runner.predictions(),
                   *fig9_store);
            recordCounters(values, "fig9", fig9_runner.predictions(),
                           *fig9_store);
        }
        fig9_text = render(report);
    }
    const double done = now();

    values["table2_digest"] = digest(table2_text);
    values["fig9_digest"] = digest(fig9_text);
    values["work_s"] = formatNumber(done - ready);
    if (tracer) {
        for (const auto &[name, value] :
             layerValues(tracer->totals(), done - ready, benchJobs))
            values["layer." + name] = formatNumber(value);
        tracer->dump(dir + "/spans.jsonl");
    }
    writeValues(result_path, values);
    return 0;
}

Outcome
runPaperCold(const RunConfig &config)
{
    ColdWorkload workload;
    workload.argv = [&](const std::string &dir, bool traced,
                        bool setup_only) {
        std::vector<std::string> argv = {config.self, "job", "paper-cold",
                                         "--dir", dir};
        if (traced)
            argv.push_back("--traced");
        if (setup_only)
            argv.push_back("--setup-only");
        return argv;
    };

    const std::string scale = formatNumber(util::workloadScale());
    const Reference *reference = nullptr;
    for (const Reference &candidate : references) {
        if (scale == candidate.scale)
            reference = &candidate;
    }
    workload.check = [reference](const ChildResult &job, Outcome &outcome) {
        // Two operations per job: the Table 2 and the Figure 9 report.
        const bool known = reference != nullptr;
        outcome.check(known && job.text("table2_digest") == reference->table2,
                      known ? "Table 2 report " + job.text("table2_digest")
                                  + " differs from reference "
                                  + reference->table2
                            : "no Table 2 reference at this VLPSIM_SCALE");
        outcome.check(known && job.text("fig9_digest") == reference->fig9,
                      known ? "Figure 9 report " + job.text("fig9_digest")
                                  + " differs from reference "
                                  + reference->fig9
                            : "no Figure 9 reference at this VLPSIM_SCALE");
    };
    workload.sameWork = {"table2_digest", "fig9_digest",
                         "table2_predictions", "table2_inserts",
                         "table2_misses", "fig9_predictions",
                         "fig9_inserts", "fig9_misses"};
    workload.idleLayers = {"trace.opens"};
    return runCold(config, workload);
}

} // namespace perfbench
