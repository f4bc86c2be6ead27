/**
 * @file
 * TraceSuiteRunner implementation.
 */

#include "sim/suite_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "core/profiler.h"
#include "predictors/budget.h"
#include "sim/report.h"
#include "store/artifact_store.h"
#include "trace/content_hash.h"
#include "trace/fault_injection.h"
#include "trace/prefetch.h"
#include "trace/streaming.h"
#include "util/chaos.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace fs = std::filesystem;

namespace vlp {
namespace sim {

namespace {

/** Manifest file picked up from the corpus root when present. */
constexpr const char *defaultManifestName = "pairs.txt";

/** Name-convention suffixes for the profile/test split. */
constexpr const char *profileSuffix = ".profile.vbt";
constexpr const char *testSuffix = ".test.vbt";

/** Per-pair working state threaded through the phases. */
struct TraceWork
{
    TraceOutcome outcome;
    /** Profiling source (sweeps, assignment, tuned length). */
    ExternalTrace profile;
    /** Evaluation source; equals profile for self-eval pairs. */
    ExternalTrace test;
    /** Passed validation and sweeps; eligible for comparisons. */
    bool valid = false;
    /** Step-1 rate curves (percent, index L-1) from the profile
     *  trace, for the suite average. */
    std::vector<double> condRates;
    std::vector<double> indRates;
};

/** One per-trace sweep, computed through the context (which consults
 *  the store) with transient retries. */
core::FixedLengthSweep
obtainSweep(const TraceSuiteOptions &options, ExperimentContext &context,
            const ExternalTrace &ext, bool indirect, unsigned index_bits)
{
    return util::retryTransient(options.retry, [&] {
        return context.externalSweep(ext, index_bits, indirect);
    });
}

/** One comparison row — profiled on @p profile, evaluated on @p eval
 *  — computed through the context with transient retries. */
ComparisonRow
obtainRow(const TraceSuiteOptions &options, ExperimentContext &context,
          const ExternalTrace &profile, const ExternalTrace &eval,
          bool indirect, std::size_t bytes, unsigned global_length)
{
    return util::retryTransient(options.retry, [&] {
        return compareExternal(context, profile, eval, bytes, global_length,
                               indirect);
    });
}

/** Drop @p work's resident traces and parked opens: returns their
 *  bytes to the resident budget and closes their files. */
void
releaseTraces(TraceWork &work)
{
    for (ExternalTrace *trace : {&work.profile, &work.test}) {
        trace->resident.reset();
        trace->session.reset();
    }
}

/** Quarantine @p work with a deterministic cause string. */
void
quarantine(TraceWork &work, const std::string &cause)
{
    work.outcome.status = TraceStatus::Quarantined;
    work.outcome.cause = cause;
    work.valid = false;
    // A quarantined pair is never replayed again: release its traces
    // immediately.
    releaseTraces(work);
    util::warn("quarantined pair " + work.outcome.name + ": " + cause);
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() > suffix.size()
        && text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix)
            == 0;
}

/** The variable-length-path entry of @p row, or nullptr. */
const RateEntry *
findVlp(const ComparisonRow &row)
{
    for (const RateEntry &entry : row.entries) {
        if (entry.predictor == names::vlp)
            return &entry;
    }
    return nullptr;
}

std::optional<double>
vlpDelta(const std::optional<ComparisonRow> &train,
         const std::optional<ComparisonRow> &test)
{
    if (!train || !test)
        return std::nullopt;
    const RateEntry *trained = findVlp(*train);
    const RateEntry *tested = findVlp(*test);
    if (trained == nullptr || tested == nullptr)
        return std::nullopt;
    return tested->rate - trained->rate;
}

/** "+1.2345%" / "-0.4100%" at the suite's historical 4 decimals. */
std::string
signedPercent(double value)
{
    return (value < 0.0 ? std::string() : std::string("+"))
        + util::formatDouble(value, 4) + "%";
}

/**
 * One comparison row as an Entries-layout report section: a
 * "    <predictor>: <rate>% (<misses>/<branches>)" line per entry,
 * rate at the suite's historical 4 decimals.
 */
void
addRowSection(Report &report, const std::string &name,
              const std::string &caption, const ComparisonRow &row)
{
    Section &section = report.addSection(name);
    section.layout = Section::Layout::Entries;
    section.caption = caption;
    section.columns = {{"mispredict (%)"},
                       {"mispredictions"},
                       {"branches"}};
    for (const RateEntry &entry : row.entries) {
        section.addRow(entry.predictor,
                       {
                           Cell::percent(entry.rate, 4),
                           Cell::count(entry.mispredictions),
                           Cell::count(entry.branches),
                       });
    }
}

/**
 * Train and test rows side by side as a PairedEntries section:
 * "    <predictor>: train <rate>% (<m>/<b>) | test <rate>% (<m>/<b>)"
 * per predictor, with the per-pair generalization delta as footer.
 */
void
addPairedRowSection(Report &report, const std::string &name,
                    const std::string &caption,
                    const ComparisonRow &train,
                    const ComparisonRow &test,
                    const std::optional<double> &delta)
{
    Section &section = report.addSection(name);
    section.layout = Section::Layout::PairedEntries;
    section.caption = caption;
    section.columns = {{"train mispredict (%)"}, {"train mispredictions"},
                       {"train branches"},       {"test mispredict (%)"},
                       {"test mispredictions"},  {"test branches"}};
    for (const RateEntry &trained : train.entries) {
        const RateEntry &tested = test.entry(trained.predictor);
        section.addRow(trained.predictor,
                       {
                           Cell::percent(trained.rate, 4),
                           Cell::count(trained.mispredictions),
                           Cell::count(trained.branches),
                           Cell::percent(tested.rate, 4),
                           Cell::count(tested.mispredictions),
                           Cell::count(tested.branches),
                       });
    }
    if (delta) {
        section.footer =
            "    generalization delta (variable length path): "
            + signedPercent(*delta) + "\n";
    }
}

/** "VBT<v>, <n> records" for one side of a pair's status line. */
std::string
containerText(unsigned format_version, std::uint64_t records)
{
    return "VBT" + std::to_string(format_version) + ", "
        + std::to_string(records) + " records";
}

} // anonymous namespace

std::optional<double>
TraceOutcome::conditionalDelta() const
{
    return vlpDelta(conditionalTrain, conditional);
}

std::optional<double>
TraceOutcome::indirectDelta() const
{
    return vlpDelta(indirectTrain, indirect);
}

std::size_t
SuiteReport::okCount() const
{
    return static_cast<std::size_t>(
        std::count_if(traces.begin(), traces.end(),
                      [](const TraceOutcome &outcome) {
                          return outcome.status == TraceStatus::Ok;
                      }));
}

std::size_t
SuiteReport::quarantinedCount() const
{
    return static_cast<std::size_t>(std::count_if(
        traces.begin(), traces.end(), [](const TraceOutcome &outcome) {
            return outcome.status == TraceStatus::Quarantined;
        }));
}

std::size_t
SuiteReport::skippedCount() const
{
    return static_cast<std::size_t>(
        std::count_if(traces.begin(), traces.end(),
                      [](const TraceOutcome &outcome) {
                          return outcome.status == TraceStatus::Skipped;
                      }));
}

std::size_t
SuiteReport::orphanedCount() const
{
    return static_cast<std::size_t>(
        std::count_if(traces.begin(), traces.end(),
                      [](const TraceOutcome &outcome) {
                          return outcome.status == TraceStatus::Orphaned;
                      }));
}

std::size_t
SuiteReport::crossEvaluatedCount() const
{
    return static_cast<std::size_t>(
        std::count_if(traces.begin(), traces.end(),
                      [](const TraceOutcome &outcome) {
                          return outcome.status == TraceStatus::Ok
                              && !outcome.selfEval;
                      }));
}

Report
SuiteReport::toReport() const
{
    Report report;
    report.title = "external trace suite";
    report.setMeta("bytes", std::uint64_t{bytes});
    report.setMeta("globalConditionalLength",
                   std::uint64_t{globalConditionalLength});
    report.setMeta("globalIndirectLength",
                   std::uint64_t{globalIndirectLength});
    report.setMeta("pairsOk", std::uint64_t{okCount()});
    report.setMeta("pairsCrossEval",
                   std::uint64_t{crossEvaluatedCount()});
    report.setMeta("pairsSelfEval",
                   std::uint64_t{okCount() - crossEvaluatedCount()});
    report.setMeta("pairsQuarantined",
                   std::uint64_t{quarantinedCount()});
    report.setMeta("pairsSkipped", std::uint64_t{skippedCount()});
    report.setMeta("tracesOrphaned", std::uint64_t{orphanedCount()});

    std::string header = "external trace suite\n";
    header += "table budget: " + std::to_string(bytes) + " bytes\n";
    header += "global conditional path length: ";
    header += globalConditionalLength > 0
        ? std::to_string(globalConditionalLength) + "\n"
        : std::string("n/a\n");
    header += "global indirect path length: ";
    header += globalIndirectLength > 0
        ? std::to_string(globalIndirectLength) + "\n"
        : std::string("n/a\n");
    header += "pairs: " + std::to_string(okCount()) + " ok ("
        + std::to_string(crossEvaluatedCount()) + " cross-eval, "
        + std::to_string(okCount() - crossEvaluatedCount())
        + " self-eval), " + std::to_string(quarantinedCount())
        + " quarantined, " + std::to_string(skippedCount())
        + " skipped, " + std::to_string(orphanedCount())
        + " orphaned\n";
    report.addText("header", header);

    for (const TraceOutcome &outcome : traces) {
        std::string text = "\n" + outcome.name + ": ";
        switch (outcome.status) {
        case TraceStatus::Ok:
            if (outcome.selfEval) {
                text += "ok self-eval ("
                    + containerText(outcome.formatVersion,
                                    outcome.records)
                    + ")\n";
                if (outcome.formatVersion < 2) {
                    text +=
                        "  warning: unchecksummed VBT1 container\n";
                }
            } else {
                text += "ok cross-eval (profile " + outcome.profileName
                    + ": "
                    + containerText(outcome.profileFormatVersion,
                                    outcome.profileRecords)
                    + "; test " + outcome.testName + ": "
                    + containerText(outcome.formatVersion,
                                    outcome.records)
                    + ")\n";
                if (outcome.profileFormatVersion < 2) {
                    text += "  warning: unchecksummed VBT1 container ("
                        + outcome.profileName + ")\n";
                }
                if (outcome.formatVersion < 2) {
                    text += "  warning: unchecksummed VBT1 container ("
                        + outcome.testName + ")\n";
                }
                report.setMeta("pair:" + outcome.name,
                               outcome.profileName + " -> "
                                   + outcome.testName);
            }
            report.addText("pair:" + outcome.name, text);
            if (outcome.conditional) {
                if (outcome.conditionalTrain) {
                    const auto delta = outcome.conditionalDelta();
                    addPairedRowSection(
                        report, "pair:" + outcome.name + ":conditional",
                        "  conditional ("
                            + std::to_string(
                                  outcome.conditionalBranches)
                            + " profiled branches; train vs test)\n",
                        *outcome.conditionalTrain, *outcome.conditional,
                        delta);
                    if (delta) {
                        report.setMeta("delta:" + outcome.name
                                           + ":conditional",
                                       signedPercent(*delta));
                    }
                } else {
                    addRowSection(
                        report, "pair:" + outcome.name + ":conditional",
                        "  conditional ("
                            + std::to_string(
                                  outcome.conditionalBranches)
                            + " branches)\n",
                        *outcome.conditional);
                }
            }
            if (outcome.indirect) {
                if (outcome.indirectTrain) {
                    const auto delta = outcome.indirectDelta();
                    addPairedRowSection(
                        report, "pair:" + outcome.name + ":indirect",
                        "  indirect ("
                            + std::to_string(outcome.indirectBranches)
                            + " profiled branches; train vs test)\n",
                        *outcome.indirectTrain, *outcome.indirect,
                        delta);
                    if (delta) {
                        report.setMeta("delta:" + outcome.name
                                           + ":indirect",
                                       signedPercent(*delta));
                    }
                } else {
                    addRowSection(
                        report, "pair:" + outcome.name + ":indirect",
                        "  indirect ("
                            + std::to_string(outcome.indirectBranches)
                            + " branches)\n",
                        *outcome.indirect);
                }
            }
            break;
        case TraceStatus::Quarantined:
            text += "quarantined (" + outcome.cause + ")\n";
            report.addText("pair:" + outcome.name, text);
            report.setMeta("quarantine:" + outcome.name,
                           outcome.cause);
            break;
        case TraceStatus::Skipped:
            text += "skipped (" + outcome.cause + ")\n";
            report.addText("pair:" + outcome.name, text);
            report.setMeta("skipped:" + outcome.name, outcome.cause);
            break;
        case TraceStatus::Orphaned:
            text += "orphaned (" + outcome.cause + ")\n";
            report.addText("pair:" + outcome.name, text);
            report.setMeta("orphaned:" + outcome.name, outcome.cause);
            break;
        }
    }
    return report;
}

void
SuiteReport::print(std::ostream &out) const
{
    AsciiReportSink sink;
    sink.write(toReport(), out);
}

TraceSuiteRunner::TraceSuiteRunner(TraceSuiteOptions options)
    : options_(std::move(options))
{
    options_.retry.cancel = options_.cancel;
}

std::vector<std::pair<std::string, std::string>>
TraceSuiteRunner::discoverTraces(const std::string &directory)
{
    std::error_code error;
    std::vector<std::pair<std::string, std::string>> traces;
    for (fs::recursive_directory_iterator it(directory, error), end;
         !error && it != end; it.increment(error)) {
        if (!it->is_regular_file()
            || it->path().extension() != ".vbt") {
            continue;
        }
        traces.emplace_back(
            it->path().lexically_relative(directory).generic_string(),
            it->path().string());
    }
    if (error) {
        util::fatal("cannot scan trace directory: " + directory + " ("
                    + error.message() + ")");
    }
    std::sort(traces.begin(), traces.end());
    return traces;
}

TracePairing
TraceSuiteRunner::pairTraces(
    const std::vector<std::pair<std::string, std::string>> &discovered,
    const std::string &manifest_path)
{
    TracePairing pairing;
    std::map<std::string, std::string> by_name(discovered.begin(),
                                               discovered.end());

    if (!manifest_path.empty()) {
        std::ifstream in(manifest_path);
        if (!in)
            util::fatal("cannot open pair manifest: " + manifest_path);
        std::set<std::string> referenced;
        std::set<std::string> pair_names;
        std::string line;
        std::size_t line_number = 0;
        while (std::getline(in, line)) {
            ++line_number;
            const auto at = [&] {
                return manifest_path + ": line "
                    + std::to_string(line_number);
            };
            std::istringstream fields(line);
            std::string name;
            if (!(fields >> name) || name[0] == '#')
                continue; // blank line or comment
            TracePair pair;
            pair.name = name;
            std::string extra;
            if (!(fields >> pair.profileName >> pair.testName)
                || (fields >> extra)) {
                util::fatal(at()
                            + ": expected '<pair> <profile.vbt> "
                              "<test.vbt>'");
            }
            if (!pair_names.insert(pair.name).second)
                util::fatal(at() + ": duplicate pair name '"
                            + pair.name + "'");
            pair.selfEval = pair.profileName == pair.testName;
            // Paths resolve through the discovery listing; a name the
            // scan never saw keeps an empty path and is quarantined
            // downstream with a structured cause.
            const auto profile_it = by_name.find(pair.profileName);
            if (profile_it != by_name.end())
                pair.profilePath = profile_it->second;
            const auto test_it = by_name.find(pair.testName);
            if (test_it != by_name.end())
                pair.testPath = test_it->second;
            referenced.insert(pair.profileName);
            referenced.insert(pair.testName);
            pairing.pairs.push_back(std::move(pair));
        }
        for (const auto &[name, path] : discovered) {
            if (referenced.count(name) == 0) {
                pairing.orphans.push_back(
                    {name, path,
                     "not referenced by pair manifest "
                         + manifest_path});
            }
        }
    } else {
        for (const auto &[name, path] : discovered) {
            if (endsWith(name, profileSuffix)) {
                const std::string stem = name.substr(
                    0, name.size() - std::strlen(profileSuffix));
                const std::string mate = stem + testSuffix;
                const auto mate_it = by_name.find(mate);
                if (mate_it == by_name.end()) {
                    pairing.orphans.push_back(
                        {name, path,
                         "profile trace without a matching " + mate});
                    continue;
                }
                TracePair pair;
                pair.name = stem;
                pair.profileName = name;
                pair.profilePath = path;
                pair.testName = mate;
                pair.testPath = mate_it->second;
                pairing.pairs.push_back(std::move(pair));
            } else if (endsWith(name, testSuffix)) {
                const std::string stem = name.substr(
                    0, name.size() - std::strlen(testSuffix));
                const std::string mate = stem + profileSuffix;
                if (by_name.count(mate) == 0) {
                    pairing.orphans.push_back(
                        {name, path,
                         "test trace without a matching " + mate});
                }
                // The pair itself was created from the profile side.
            } else {
                TracePair pair;
                pair.name = name;
                pair.profileName = name;
                pair.profilePath = path;
                pair.testName = name;
                pair.testPath = path;
                pair.selfEval = true;
                pairing.pairs.push_back(std::move(pair));
            }
        }
    }

    std::sort(pairing.pairs.begin(), pairing.pairs.end(),
              [](const TracePair &a, const TracePair &b) {
                  return a.name < b.name;
              });
    std::sort(pairing.orphans.begin(), pairing.orphans.end(),
              [](const OrphanTrace &a, const OrphanTrace &b) {
                  return a.name < b.name;
              });
    return pairing;
}

SuiteReport
TraceSuiteRunner::run()
{
    const auto discovered = discoverTraces(options_.directory);

    std::string manifest = options_.manifest;
    if (manifest.empty()) {
        const fs::path candidate =
            fs::path(options_.directory) / defaultManifestName;
        std::error_code error;
        if (fs::is_regular_file(candidate, error) && !error)
            manifest = candidate.string();
    }
    const TracePairing pairing = pairTraces(discovered, manifest);

    const unsigned jobs = options_.jobs == 0
        ? util::ThreadPool::defaultThreadCount()
        : options_.jobs;
    std::unique_ptr<util::ThreadPool> pool;
    if (jobs > 1 && pairing.pairs.size() > 1)
        pool = std::make_unique<util::ThreadPool>(jobs);
    // fn(i) for every i: inline without a pool, else claimed
    // dynamically by the pool's workers. fn absorbs per-pair errors
    // into outcomes; only cancellation escapes, and it aborts the run.
    const auto for_each = [&](std::size_t count,
                              const std::function<void(std::size_t)> &fn) {
        if (!pool) {
            for (std::size_t i = 0; i < count; ++i)
                fn(i);
            return;
        }
        pool->parallelFor(count, fn);
    };

    // One memo for every worker, configured before it is shared: a
    // profile trace serving several pairs is swept, assigned and
    // compared once per run, whichever worker asks first.
    ExperimentContext context;
    context.setStore(options_.store);
    context.setCancelToken(options_.cancel);

    std::vector<TraceWork> work(pairing.pairs.size());
    for (std::size_t i = 0; i < pairing.pairs.size(); ++i) {
        const TracePair &pair = pairing.pairs[i];
        TraceOutcome &outcome = work[i].outcome;
        outcome.name = pair.name;
        outcome.path = pair.testPath;
        outcome.selfEval = pair.selfEval;
        outcome.profileName = pair.profileName;
        outcome.profilePath = pair.profilePath;
        outcome.testName = pair.testName;
    }

    const unsigned cond_bits = pred::conditionalIndexBits(options_.bytes);
    const unsigned ind_bits = pred::indirectIndexBits(options_.bytes);

    // Verify-once pipelined ingestion: each trace is opened and read
    // exactly once per attempt by one fused pass (content hash,
    // checksum, decode, and record checks), which leaves it resident
    // for every later replay, and a bounded prefetcher verifies
    // upcoming traces while workers simulate earlier ones. Overlap
    // changes throughput only — every result is still a pure function
    // of the trace bytes and options.
    trace::FileOpener effective_opener =
        options_.opener ? options_.opener : trace::openByteFile;
    // Under an active chaos campaign every open and read goes through
    // the fault-injecting wrapper, so ingestion hazards (transient
    // opens, short reads, refused views) are exercised on the same
    // code paths production uses.
    if (util::chaos::enabled())
        effective_opener = trace::chaosOpener(effective_opener);
    constexpr std::size_t no_item = ~std::size_t{0};
    std::vector<std::string> prefetch_paths;
    std::vector<std::size_t> profile_item(pairing.pairs.size(), no_item);
    std::vector<std::size_t> test_item(pairing.pairs.size(), no_item);
    for (std::size_t i = 0; i < pairing.pairs.size(); ++i) {
        const TracePair &pair = pairing.pairs[i];
        if (pair.profilePath.empty() || pair.testPath.empty())
            continue; // quarantined in the worker, nothing to open
        profile_item[i] = prefetch_paths.size();
        prefetch_paths.push_back(pair.profilePath);
        if (!pair.selfEval) {
            test_item[i] = prefetch_paths.size();
            prefetch_paths.push_back(pair.testPath);
        }
    }
    trace::TracePrefetcher::Options prefetch_options;
    prefetch_options.opener = effective_opener;
    // The window bounds how far verification runs ahead of the
    // workers (and how many parked sessions hold descriptors).
    prefetch_options.window = 2 * static_cast<std::size_t>(jobs) + 2;
    prefetch_options.threads = jobs;
    prefetch_options.retry = options_.retry;
    prefetch_options.cancel = options_.cancel;
    trace::TracePrefetcher prefetch(prefetch_paths, prefetch_options);

    // Phase A+B: validate both traces of each pair and collect the
    // profile trace's step-1 sweeps. Pairs are claimed in index order
    // from parallelFor's one monotonic counter, so every worker takes
    // its prefetched items in increasing order — TracePrefetcher's
    // consumption contract, which keeps the bounded window
    // deadlock-free.
    for_each(work.size(), [&](std::size_t i) {
        TraceWork &item = work[i];
        const TracePair &pair = pairing.pairs[i];
        if (options_.cancel)
            options_.cancel->throwIfCancelled();
        try {
            if (pair.profilePath.empty()) {
                quarantine(item, "pair manifest references '"
                                     + pair.profileName
                                     + "', which is not in the corpus");
                return;
            }
            if (pair.testPath.empty()) {
                quarantine(item, "pair manifest references '"
                                     + pair.testName
                                     + "', which is not in the corpus");
                return;
            }

            // Collect both prefetched opens before inspecting either:
            // every published item must be consumed to free window
            // slots, error or not. A pair whose content cannot even
            // be hashed is quarantined (profile cause first, like the
            // historical sequential opens).
            trace::PrefetchedTrace profile_open =
                prefetch.take(profile_item[i]);
            trace::PrefetchedTrace test_open;
            if (!pair.selfEval)
                test_open = prefetch.take(test_item[i]);
            if (profile_open.error)
                std::rethrow_exception(profile_open.error);

            item.profile.name = pair.profileName;
            item.profile.path = pair.profilePath;
            item.profile.contentHash = profile_open.contentHash;
            item.profile.resident = std::move(profile_open.resident);
            item.profile.session = std::move(profile_open.session);
            item.outcome.profileFormatVersion =
                profile_open.formatVersion;
            item.outcome.profileRecords = profile_open.records;

            if (pair.selfEval) {
                item.test = item.profile;
                item.outcome.formatVersion =
                    item.outcome.profileFormatVersion;
                item.outcome.records = item.outcome.profileRecords;
            } else {
                if (test_open.error)
                    std::rethrow_exception(test_open.error);
                item.test.name = pair.testName;
                item.test.path = pair.testPath;
                item.test.contentHash = test_open.contentHash;
                item.test.resident = std::move(test_open.resident);
                item.test.session = std::move(test_open.session);
                item.outcome.formatVersion = test_open.formatVersion;
                item.outcome.records = test_open.records;
            }
            if (item.outcome.profileFormatVersion < 2) {
                util::warn("trace " + pair.profileName
                           + " is an unchecksummed VBT1 container; "
                             "corruption would go undetected");
            }
            if (!pair.selfEval && item.outcome.formatVersion < 2) {
                util::warn("trace " + pair.testName
                           + " is an unchecksummed VBT1 container; "
                             "corruption would go undetected");
            }

            const core::FixedLengthSweep cond_sweep =
                obtainSweep(options_, context, item.profile, false,
                            cond_bits);
            const core::FixedLengthSweep ind_sweep =
                obtainSweep(options_, context, item.profile, true,
                            ind_bits);
            item.outcome.conditionalBranches = cond_sweep.branches;
            item.outcome.indirectBranches = ind_sweep.branches;
            item.condRates = rateCurve(cond_sweep);
            item.indRates = rateCurve(ind_sweep);
            item.valid = true;
        } catch (const util::CancelledError &) {
            throw; // aborts the run; never a quarantine cause
        } catch (const util::TransientError &error) {
            quarantine(item,
                       std::string("transient failure persisted after ")
                           + std::to_string(
                                 std::max(options_.retry.maxAttempts, 1u))
                           + " attempts: " + error.what());
        } catch (const std::exception &error) {
            quarantine(item, error.what());
        }
    });

    // Suite-wide global lengths, accumulated in sorted-pair order on
    // this thread so the averages are bit-identical for any jobs
    // value (mirrors the paper's Table 2 methodology: profile inputs
    // only).
    SuiteAverage cond_average;
    SuiteAverage ind_average;
    for (TraceWork &item : work) {
        if (!item.valid)
            continue;
        if (item.outcome.conditionalBranches > 0)
            cond_average.add(item.condRates);
        if (item.outcome.indirectBranches >= minIndirectBranches)
            ind_average.add(item.indRates);
        if (item.outcome.conditionalBranches == 0
            && item.outcome.indirectBranches < minIndirectBranches) {
            item.valid = false;
            item.outcome.status = TraceStatus::Skipped;
            item.outcome.cause = "no usable branches ("
                + std::to_string(item.outcome.conditionalBranches)
                + " conditional, "
                + std::to_string(item.outcome.indirectBranches)
                + " indirect)";
        }
    }
    unsigned global_cond = 0;
    unsigned global_ind = 0;
    if (cond_average.count() > 0)
        global_cond = argminLength(cond_average.average());
    if (ind_average.count() > 0)
        global_ind = argminLength(ind_average.average());
    // Pinned globals (the chaos campaign's masked baseline): replay
    // rows are pure functions of the pair's traces plus these two
    // lengths, so pinning them lets a chaos-off rerun be compared
    // pair-by-pair even when a quarantine changed the suite average.
    if (options_.forceGlobalConditionalLength)
        global_cond = *options_.forceGlobalConditionalLength;
    if (options_.forceGlobalIndirectLength)
        global_ind = *options_.forceGlobalIndirectLength;

    // Phase C: comparison rows per surviving pair — the train row
    // replays the profile trace, the test row replays the test trace,
    // both against the assignment learned from the profile trace.
    // Pairs are claimed largest first (profile plus test records, ties
    // by index) so the biggest pair never starts last; the order moves
    // only the schedule, as every row is a pure function of its pair.
    // A pair stays one work item: a trace too large to keep resident
    // has one parked session, which one thread at a time may use, and
    // the join between the phases orders its hand-off from the
    // phase-A worker to this one.
    std::vector<std::size_t> order(work.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto pair_records = [&](std::size_t i) {
        return work[i].outcome.profileRecords + work[i].outcome.records;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return pair_records(a) > pair_records(b);
                     });
    for_each(order.size(), [&](std::size_t claim) {
        TraceWork &item = work[order[claim]];
        if (!item.valid) {
            // Skipped in the barrier (or quarantined without passing
            // through quarantine's release): this pair will never be
            // replayed, so release its traces now.
            releaseTraces(item);
            return;
        }
        if (options_.cancel)
            options_.cancel->throwIfCancelled();
        try {
            if (item.outcome.conditionalBranches > 0
                && global_cond > 0) {
                if (!item.outcome.selfEval) {
                    item.outcome.conditionalTrain =
                        obtainRow(options_, context, item.profile,
                                  item.profile, false, options_.bytes,
                                  global_cond);
                }
                item.outcome.conditional =
                    obtainRow(options_, context, item.profile, item.test,
                              false, options_.bytes, global_cond);
            }
            if (item.outcome.indirectBranches >= minIndirectBranches
                && global_ind > 0) {
                if (!item.outcome.selfEval) {
                    item.outcome.indirectTrain =
                        obtainRow(options_, context, item.profile,
                                  item.profile, true, options_.bytes,
                                  global_ind);
                }
                item.outcome.indirect =
                    obtainRow(options_, context, item.profile, item.test,
                              true, options_.bytes, global_ind);
            }
        } catch (const util::CancelledError &) {
            throw; // aborts the run; never a quarantine cause
        } catch (const util::TransientError &error) {
            quarantine(item,
                       std::string("transient failure persisted after ")
                           + std::to_string(
                                 std::max(options_.retry.maxAttempts, 1u))
                           + " attempts: " + error.what());
        } catch (const std::exception &error) {
            quarantine(item, error.what());
        }
        // All replays of this pair are done: release its traces now
        // rather than when the run ends.
        releaseTraces(item);
    });

    SuiteReport report;
    report.bytes = options_.bytes;
    report.globalConditionalLength = global_cond;
    report.globalIndirectLength = global_ind;
    report.traces.reserve(work.size() + pairing.orphans.size());
    for (TraceWork &item : work)
        report.traces.push_back(std::move(item.outcome));
    for (const OrphanTrace &orphan : pairing.orphans) {
        TraceOutcome outcome;
        outcome.name = orphan.name;
        outcome.path = orphan.path;
        outcome.status = TraceStatus::Orphaned;
        outcome.cause = orphan.cause;
        report.traces.push_back(std::move(outcome));
    }
    std::sort(report.traces.begin(), report.traces.end(),
              [](const TraceOutcome &a, const TraceOutcome &b) {
                  return a.name < b.name;
              });
    return report;
}

} // namespace sim
} // namespace vlp
