/**
 * @file
 * corpus-cold: a paired external corpus through sim::TraceSuiteRunner
 * — the path of `vlpsim suite --traces DIR 16384 --jobs 4` — from an
 * empty store.
 *
 * Before timing, the corpus is written from the seed as 16
 * `<bench>.profile.vbt`/`<bench>.test.vbt` pairs with
 * workload::generateTrace and trace::TraceWriter; the seed is mixed
 * into each spec's profile and test input seeds. The program only
 * sees the files. They were just written, so every timed job reads
 * them from the page cache: nothing here is a disk measurement.
 */

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <thread>

#include "cold.h"
#include "common.h"
#include "predictors/budget.h"
#include "replica.h"
#include "sim/suite_runner.h"
#include "store/artifact_store.h"
#include "trace/mmap_file.h"
#include "trace/streaming.h"
#include "trace/trace_io.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace perfbench {

using namespace vlp;

namespace {

constexpr std::size_t corpusBytes = 16384;
/** src/sim/suite_runner.cc's threshold for evaluating indirect rows. */
constexpr std::uint64_t minIndirectBranches = 1000;

/** Write the seeded corpus: one profile/test pair per benchmark. */
void
writeCorpus(const std::string &dir, std::uint64_t seed)
{
    freshDirectory(dir);
    const auto &suite = workload::benchmarkSuite();
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> failures(benchJobs);
    for (unsigned worker = 0; worker < benchJobs; ++worker) {
        threads.emplace_back([&, worker] {
            try {
                for (std::size_t i = worker; i < suite.size();
                     i += benchJobs) {
                    workload::BenchmarkSpec spec = suite[i];
                    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + i);
                    spec.profileInput.seed ^= rng.next();
                    spec.testInput.seed ^= rng.next();
                    for (const auto kind : {workload::InputKind::Profile,
                                            workload::InputKind::Test}) {
                        const auto trace = workload::generateTrace(spec, kind);
                        trace::TraceWriter writer(
                            dir + "/" + spec.name
                            + (kind == workload::InputKind::Profile
                                   ? ".profile.vbt"
                                   : ".test.vbt"));
                        for (const auto &record : trace.records())
                            writer.write(record);
                        writer.close();
                    }
                }
            } catch (...) {
                failures[worker] = std::current_exception();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (const auto &failure : failures) {
        if (failure)
            std::rethrow_exception(failure);
    }
    // Write the corpus back now, so its writeback does not land in
    // the timed jobs.
    sync();
}

/** Canonical text of every comparison row, pair by pair. */
void
appendRow(std::ostringstream &out, const char *slot,
          const std::optional<sim::ComparisonRow> &row)
{
    out << " " << slot << "=";
    if (!row)
        return;
    out << row->benchmark;
    for (const auto &entry : row->entries)
        out << "|" << entry.predictor << ":" << entry.branches << ":"
            << entry.mispredictions;
}

std::string
rowsText(const std::vector<sim::TraceOutcome> &outcomes)
{
    std::ostringstream out;
    for (const auto &outcome : outcomes) {
        out << outcome.name;
        appendRow(out, "ct", outcome.conditionalTrain);
        appendRow(out, "c", outcome.conditional);
        appendRow(out, "it", outcome.indirectTrain);
        appendRow(out, "i", outcome.indirect);
        out << "\n";
    }
    return out.str();
}

ExternalFile
ingest(const std::string &name, const std::string &path)
{
    Scope scope("trace.hashTraceFile");
    auto file = trace::fastOpener(trace::ReadMode::Auto)(path);
    scope.setItems(file->size());
    return {name, path, trace::hashTraceFile(*file)};
}

/**
 * TraceSuiteRunner::run()'s phases over the traced replica: hash and
 * sweep each pair's profile trace, derive the global lengths, then
 * replay the train and test rows. Pairs shard like the runner's.
 */
std::vector<sim::TraceOutcome>
tracedSuite(const std::string &corpus, TracedRunner &runner,
            std::uint64_t &quarantined)
{
    const sim::TracePairing pairing = sim::TraceSuiteRunner::pairTraces(
        sim::TraceSuiteRunner::discoverTraces(corpus), "");
    const std::size_t count = pairing.pairs.size();
    std::vector<sim::TraceOutcome> outcomes(count);
    std::vector<ExternalFile> profiles(count), tests(count);
    std::vector<std::vector<double>> cond_rates(count), ind_rates(count);
    std::vector<char> valid(count, 0);
    const unsigned cond_bits = pred::conditionalIndexBits(corpusBytes);
    const unsigned ind_bits = pred::indirectIndexBits(corpusBytes);

    runner.pool.run(count, [&](unsigned worker, std::size_t i) {
        const sim::TracePair &pair = pairing.pairs[i];
        sim::TraceOutcome &outcome = outcomes[i];
        outcome.name = pair.name;
        try {
            profiles[i] = ingest(pair.profileName, pair.profilePath);
            tests[i] = ingest(pair.testName, pair.testPath);
            TracedContext &context = *runner.contexts[worker];
            const auto &cond =
                context.externalSweep(profiles[i], cond_bits, false);
            const auto &ind = context.externalSweep(profiles[i], ind_bits, true);
            outcome.conditionalBranches = cond.branches;
            outcome.indirectBranches = ind.branches;
            cond_rates[i] = rates(cond);
            ind_rates[i] = rates(ind);
            valid[i] = 1;
        } catch (const std::exception &) {
            outcome.status = sim::TraceStatus::Quarantined;
        }
    });

    std::vector<double> cond_average(core::maxPathLength, 0.0);
    std::vector<double> ind_average(core::maxPathLength, 0.0);
    unsigned cond_counted = 0, ind_counted = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (!valid[i]) {
            ++quarantined;
            continue;
        }
        const auto &outcome = outcomes[i];
        if (outcome.conditionalBranches > 0) {
            ++cond_counted;
            for (unsigned l = 0; l < core::maxPathLength; ++l)
                cond_average[l] += cond_rates[i][l];
        }
        if (outcome.indirectBranches >= minIndirectBranches) {
            ++ind_counted;
            for (unsigned l = 0; l < core::maxPathLength; ++l)
                ind_average[l] += ind_rates[i][l];
        }
    }
    unsigned global_cond = 0, global_ind = 0;
    if (cond_counted > 0) {
        for (double &rate : cond_average)
            rate /= cond_counted;
        global_cond = argminLength(cond_average);
    }
    if (ind_counted > 0) {
        for (double &rate : ind_average)
            rate /= ind_counted;
        global_ind = argminLength(ind_average);
    }

    runner.pool.run(count, [&](unsigned worker, std::size_t i) {
        if (!valid[i])
            return;
        TracedContext &context = *runner.contexts[worker];
        sim::TraceOutcome &outcome = outcomes[i];
        if (outcome.conditionalBranches > 0 && global_cond > 0) {
            outcome.conditionalTrain = tracedCompareExternal(
                context, profiles[i], profiles[i], corpusBytes, global_cond,
                false);
            outcome.conditional = tracedCompareExternal(
                context, profiles[i], tests[i], corpusBytes, global_cond,
                false);
        }
        if (outcome.indirectBranches >= minIndirectBranches
            && global_ind > 0) {
            outcome.indirectTrain = tracedCompareExternal(
                context, profiles[i], profiles[i], corpusBytes, global_ind,
                true);
            outcome.indirect = tracedCompareExternal(
                context, profiles[i], tests[i], corpusBytes, global_ind,
                true);
        }
    });
    return outcomes;
}

} // anonymous namespace

int
corpusColdJob(const std::string &dir, const std::string &corpus,
              bool traced, bool setup_only)
{
    std::map<std::string, std::string> values;
    const std::string result_path = dir + "/result.txt";

    auto store = openStore(dir + "/store");
    std::unique_ptr<sim::TraceSuiteRunner> runner;
    std::unique_ptr<TracedRunner> traced_runner;
    if (traced) {
        traced_runner = std::make_unique<TracedRunner>(benchJobs, store);
    } else {
        sim::TraceSuiteOptions options;
        options.directory = corpus;
        options.bytes = corpusBytes;
        options.jobs = benchJobs;
        options.store = store;
        runner = std::make_unique<sim::TraceSuiteRunner>(options);
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
    std::vector<sim::TraceOutcome> outcomes;
    std::uint64_t quarantined = 0;
    if (traced) {
        outcomes = tracedSuite(corpus, *traced_runner, quarantined);
    } else {
        sim::SuiteReport report = runner->run();
        std::ostringstream text;
        report.print(text);
        values["report_digest"] = digest(text.str());
        for (const auto &outcome : report.traces) {
            if (outcome.status != sim::TraceStatus::Ok)
                ++quarantined;
        }
        outcomes = std::move(report.traces);
    }
    const double done = now();

    values["pairs"] = std::to_string(outcomes.size());
    values["not_ok"] = std::to_string(quarantined);
    values["rows_digest"] = digest(rowsText(outcomes));
    values["inserts"] = std::to_string(store->counters().inserts);
    values["work_s"] = formatNumber(done - ready);
    if (tracer) {
        auto layers = layerValues(tracer->totals(), done - ready, benchJobs);
        layers["trace.quarantined"] = static_cast<double>(quarantined);
        for (const auto &[name, value] : layers)
            values["layer." + name] = formatNumber(value);
        tracer->dump(dir + "/spans.jsonl");
    }
    writeValues(result_path, values);
    return 0;
}

Outcome
runCorpusCold(const RunConfig &config)
{
    const std::string corpus = config.workDir + "/corpus";
    writeCorpus(corpus, config.seed);

    ColdWorkload workload;
    workload.argv = [&](const std::string &dir, bool traced,
                        bool setup_only) {
        std::vector<std::string> argv = {config.self, "job", "corpus-cold",
                                         "--dir", dir, "--corpus", corpus};
        if (traced)
            argv.push_back("--traced");
        if (setup_only)
            argv.push_back("--setup-only");
        return argv;
    };
    // One operation per pair. A report that differs from this seed's
    // first report fails every pair of the job.
    auto first_report = std::make_shared<std::string>();
    workload.check = [first_report](const ChildResult &job,
                                    Outcome &outcome) {
        const auto pairs = static_cast<std::uint64_t>(job.number("pairs"));
        const auto not_ok = static_cast<std::uint64_t>(job.number("not_ok"));
        if (first_report->empty())
            *first_report = job.text("report_digest");
        const bool same = job.text("report_digest") == *first_report;
        for (std::uint64_t i = 0; i < std::max<std::uint64_t>(pairs, 16);
             ++i) {
            const bool ok = same && i < pairs && i >= not_ok;
            outcome.check(ok, !same ? "suite report differs between runs"
                              : i >= pairs ? "corpus pair missing"
                                           : "pair quarantined or skipped");
        }
    };
    workload.sameWork = {"pairs", "not_ok", "rows_digest", "inserts"};
    workload.idleLayers = {"workload.generate_calls"};
    Outcome outcome = runCold(config, workload);
    outcome.notes.push_back(
        "corpus files were written before timing and are read from the "
        "page cache; no figure here is a disk measurement");
    return outcome;
}

} // namespace perfbench
