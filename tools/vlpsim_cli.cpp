/**
 * @file
 * vlpsim — command-line driver for the library.
 *
 * Subcommands (every one accepts --help):
 *   list
 *       Print the benchmark suite with its Table-1 parameters.
 *   gen <benchmark> <profile|test> <out.vbt> [scale]
 *       Generate a synthetic branch trace and write it as a .vbt file.
 *   stats <trace.vbt>
 *       Print Table-1-style statistics for a trace file.
 *   profile <trace.vbt> <bytes> <cond|ind> <out.assignment>
 *       Run the paper's two-step profiling heuristic over a trace and
 *       save the per-branch hash-number assignment (one line per pc,
 *       in ascending pc order). The trace streams in bounded-memory
 *       chunks (zero-copy when it maps; --read-mode auto|mmap|stdio
 *       picks the backend). The summary goes through the report
 *       model, so --format csv|json exports it machine-readably.
 *   eval <trace.vbt> <bytes> <cond|ind> [assignment]
 *       Evaluate predictors on a trace: the paper's baselines plus
 *       fixed length path, and — when an assignment file is given —
 *       the variable length path predictor.
 *   top <trace.vbt> <bytes> [count]
 *       Rank the conditional branches by their contribution to
 *       gshare's mispredictions and show what a path predictor does
 *       with each — the per-branch view behind the paper's averages.
 *   suite <cond|ind> <bytes> [--jobs N] [cache flags] [output flags]
 *       Profile and compare the paper's predictors over the whole
 *       benchmark suite, sharded benchmark-per-worker across the
 *       parallel experiment engine (--jobs 1 forces the serial path;
 *       the default is one worker per hardware thread). Output is
 *       bit-identical for every --jobs value. With --cache-dir DIR
 *       (or VLPSIM_CACHE_DIR), profiling artifacts are kept in an
 *       on-disk store, so a warm rerun skips the fixed-length sweeps
 *       and prints byte-identical results; --cache-max-bytes N bounds
 *       the store, --no-cache disables it. --format csv|json exports
 *       the comparison through the shared report schema.
 *   suite --traces <dir> [bytes] [--pairs FILE] [--jobs N]
 *         [--read-mode auto|mmap|stdio] [cache flags]
 *       External-trace mode: run the paper's methodology over the
 *       .vbt corpus under <dir> through the hardened ingestion
 *       pipeline: every trace is opened once (validation, content
 *       hash, and replay share the open), decoded zero-copy from an
 *       mmap window when possible (--read-mode selects the backend;
 *       reports are byte-identical either way), and prefetched ahead
 *       of the simulation. Traces are grouped into profile/test pairs — via
 *       --pairs (or <dir>/pairs.txt), else the
 *       .profile.vbt/.test.vbt name convention, else a labeled
 *       self-eval fallback — and each pair reports train vs test
 *       accuracy with the generalization delta. Each trace is read
 *       once, verified, and replayed from a compact resident copy
 *       (streamed in bounded-memory chunks when it does not fit the
 *       resident budget), transient IO errors are retried with
 *       backoff, unreadable pairs are quarantined (listed with their
 *       cause) while the run continues, and with --cache-dir every
 *       completed sweep, assignment and row is stored atomically, so
 *       a killed run rerun on the same store resumes where it left
 *       off with a byte-identical report. Exits 2 when
 *       the corpus has no .vbt traces, 1 when no pair completed.
 *       Exports carry quarantine/orphan causes and cache counters as
 *       metadata.
 *   validate <report.json>
 *       Check a --format json export against the vlpsim-report schema
 *       (docs/FORMATS.md); prints each problem and exits nonzero on
 *       the first invalid document — the CI gate for export drift.
 *   cache <stats|verify|clear> <dir>
 *       Inspect the artifact cache: stats prints entry counts, bytes,
 *       and lifetime hit/miss counters; verify re-validates every
 *       entry's checksum (removing corrupt ones); clear empties it.
 *   import <in.txt> <out.vbt> / export <in.vbt> <out.txt>
 *       Convert between the text trace format (one branch per line —
 *       the adapter path for external tools) and the binary format.
 *   convert <in.txt> <out.vbt>
 *       Like import, but lenient: malformed lines are skipped and
 *       reported with their line numbers instead of aborting, for
 *       external branch logs (ChampSim-style reduced lines accepted).
 *   serve / submit / status / cancel / shutdown
 *       The async experiment service and its client verbs
 *       (tools/cli_serve.cpp): a daemon on a local socket with a
 *       bounded request queue, admission control, cooperative
 *       cancellation, and warm answers from the artifact cache. Wire
 *       protocol in docs/FORMATS.md.
 *
 *   chaos --seed S [--suite DIR] [--serve] [--requests N]
 *       Seeded fault-injection soak campaign (tools/cli_chaos.cpp):
 *       runs the suite and/or serve paths with the util::chaos
 *       switchboard armed and verifies the robustness invariants —
 *       no hang, every request terminal, quarantines carry causes,
 *       reports replay byte-identically for the same seed.
 *
 * Global flags: --help, --version (build stamp + schema/protocol
 * versions), --log-level LEVEL (also VLPSIM_LOG_LEVEL), and the
 * chaos switchboard knobs --chaos / --chaos-seed N /
 * --chaos-activate P / --chaos-fire P (DESIGN.md §16), which arm
 * fault injection process-wide before the subcommand runs. The
 * subcommand table below generates the top-level help.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_commands.h"
#include "core/path_predictor.h"
#include "core/profiler.h"
#include "predictors/btb.h"
#include "predictors/budget.h"
#include "predictors/gshare.h"
#include "predictors/target_cache.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "serve/protocol.h"
#include "sim/report.h"
#include "sim/run_options.h"
#include "sim/service.h"
#include "sim/simulator.h"
#include "sim/suite_runner.h"
#include "store/artifact_store.h"
#include "trace/mmap_file.h"
#include "trace/streaming.h"
#include "trace/text_io.h"
#include "trace/trace_io.h"
#include "trace/trace_stats.h"
#include "util/args.h"
#include "util/chaos.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/socket.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/version.h"
#include "workload/benchmarks.h"

namespace {

using namespace vlp;

/** Register --read-mode on @p parser, parsed into @p mode. */
void
addReadModeFlag(util::ArgParser &parser, trace::ReadMode *mode)
{
    parser.addOption(
        "--read-mode", "auto|mmap|stdio",
        "trace file backend: zero-copy mmap with stdio fallback "
        "(auto, the default), mmap (falls back with a warning when "
        "the file cannot map), or buffered stdio",
        [mode](const std::string &text) {
            *mode = trace::parseReadMode(text);
        });
}

workload::InputKind
parseInput(const std::string &text)
{
    if (text == "profile")
        return workload::InputKind::Profile;
    if (text == "test")
        return workload::InputKind::Test;
    util::fatal("input set must be 'profile' or 'test'");
}

bool
parseIndirect(const std::string &text)
{
    if (text == "cond")
        return false;
    if (text == "ind")
        return true;
    util::fatal("branch class must be 'cond' or 'ind'");
}

int
cmdList(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim list",
        "print the benchmark suite with its Table-1 parameters");
    sim::OutputOptions output;
    output.registerFlags(parser);
    parser.parse(argc, argv, 2);

    sim::Report report;
    report.title = "benchmark suite";
    sim::Section &section = report.addSection("benchmarks");
    section.columns = {{"benchmark"}, {"group"}, {"paper cond dyn"},
                       {"paper cond static"}, {"paper ind dyn"},
                       {"paper ind static"}};
    for (const auto &spec : workload::benchmarkSuite()) {
        section.addRow(
            spec.name,
            {sim::Cell::text(spec.name),
             sim::Cell::text(spec.isSpec ? "SPECint95" : "non-SPEC"),
             sim::Cell::scaled(spec.paperDynamicCond),
             sim::Cell::count(spec.paperStaticCond),
             sim::Cell::scaled(spec.paperDynamicIndirect),
             sim::Cell::count(spec.paperStaticInd)});
    }
    output.write(report);
    return 0;
}

int
cmdGen(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim gen",
        "generate a synthetic branch trace as a .vbt file");
    parser.addPositional("benchmark",
                         "benchmark name (see 'vlpsim list')");
    parser.addPositional("profile|test", "input set to generate");
    parser.addPositional("out.vbt", "output trace path");
    parser.addPositional("scale", "extra scale factor (default 1)",
                         false);
    const auto args = parser.parse(argc, argv, 2);

    const auto &spec = workload::findBenchmark(args[0]);
    const auto kind = parseInput(args[1]);
    double extra = 1.0;
    if (args.size() > 3) {
        // The range workloadScale() allows for VLPSIM_SCALE.
        char *end = nullptr;
        extra = std::strtod(args[3].c_str(), &end);
        if (end == args[3].c_str() || *end != '\0'
            || !std::isfinite(extra) || extra <= 0.0 || extra > 1000.0)
            parser.fail("scale must be a number in (0, 1000], got '"
                        + args[3] + "'");
    }
    auto trace = workload::generateTrace(spec, kind, extra);
    trace::saveTrace(trace, args[2]);
    std::cout << "wrote " << util::formatScaled(trace.size())
              << " records to " << args[2] << "\n";
    return 0;
}

int
cmdStats(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim stats",
        "print Table-1-style statistics for a trace file");
    parser.addPositional("trace.vbt", "input trace");
    const auto args = parser.parse(argc, argv, 2);

    trace::StreamingTraceReader reader(args[0]);
    if (reader.formatVersion() < 2) {
        std::cerr << "warning: " << args[0]
                  << " is an unchecksummed VBT1 container; corruption "
                     "would go undetected (re-export to upgrade)\n";
    }
    trace::TraceStats stats;
    stats.observeAll(reader);
    std::cout << stats.summary() << "\n";
    return 0;
}

int
cmdProfile(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim profile",
        "run the paper's two-step profiling heuristic over a trace");
    parser.addPositional("trace.vbt", "input trace");
    parser.addPositional("bytes", "predictor table budget in bytes");
    parser.addPositional("cond|ind", "branch class");
    parser.addPositional("out.assignment",
                         "output per-branch hash assignment");
    trace::ReadMode read_mode = trace::ReadMode::Auto;
    addReadModeFlag(parser, &read_mode);
    sim::OutputOptions output;
    output.registerFlags(parser);
    const auto args = parser.parse(argc, argv, 2);

    // Stream the trace instead of materializing it: profiling replays
    // in bounded-memory chunks (zero-copy when the file maps), so
    // multi-gigabyte inputs profile at a flat memory footprint.
    trace::StreamingTraceReader trace(
        trace::openByteFileFast(args[0], read_mode));
    const std::size_t bytes =
        std::strtoul(args[1].c_str(), nullptr, 0);
    const bool indirect = parseIndirect(args[2]);

    core::ProfileOptions options;
    options.indexBits = indirect ? pred::indirectIndexBits(bytes)
                                 : pred::conditionalIndexBits(bytes);
    const core::HashAssignment assignment =
        core::Profiler(options, indirect).profile(trace);
    assignment.save(args[3]);

    const std::string histogram =
        assignment.lengthHistogram().toString();
    sim::Report report;
    report.title = "profile";
    report.setMeta("trace", args[0]);
    report.setMeta("bytes", std::uint64_t{bytes});
    report.setMeta("class", indirect ? "ind" : "cond");
    report.setMeta("staticBranches",
                   std::uint64_t{assignment.size()});
    report.setMeta("defaultLength",
                   std::uint64_t{assignment.defaultLength()});
    report.setMeta("lengthHistogram", histogram);
    report.addText(
        "summary",
        "profiled " + std::to_string(assignment.size())
            + " static branches (default length "
            + std::to_string(assignment.defaultLength()) + ") -> "
            + args[3] + "\nlength histogram: " + histogram + "\n");
    output.write(report);
    return 0;
}

int
cmdEval(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim eval",
        "evaluate the paper's predictors on a trace");
    parser.addPositional("trace.vbt", "input trace");
    parser.addPositional("bytes", "predictor table budget in bytes");
    parser.addPositional("cond|ind", "branch class");
    parser.addPositional("assignment",
                         "profiled hash assignment (adds the "
                         "variable length path predictor)",
                         false);
    const auto args = parser.parse(argc, argv, 2);

    auto trace = trace::loadTrace(args[0]);
    const std::size_t bytes =
        std::strtoul(args[1].c_str(), nullptr, 0);
    const bool indirect = parseIndirect(args[2]);
    const bool have_assignment = args.size() > 3;

    const core::HashAssignment assignment =
        have_assignment ? core::HashAssignment::load(args[3])
                        : core::HashAssignment(5);

    sim::Simulator simulator;
    std::vector<sim::PredictorResult> results;
    if (indirect) {
        const unsigned k = pred::indirectIndexBits(bytes);
        pred::BtbPredictor btb(k);
        pred::PathTargetCache chp_path(k);
        pred::PatternTargetCache chp_pattern(k);
        core::PathIndirectPredictor flp(k, 5);
        core::PathIndirectPredictor vlp(k, assignment);
        simulator.addIndirect(&btb);
        simulator.addIndirect(&chp_path);
        simulator.addIndirect(&chp_pattern);
        simulator.addIndirect(&flp);
        if (have_assignment)
            simulator.addIndirect(&vlp);
        simulator.run(trace);
        results = simulator.indirectResults();
    } else {
        const unsigned k = pred::conditionalIndexBits(bytes);
        pred::GsharePredictor gshare(k);
        core::PathConditionalPredictor flp(k, 5);
        core::PathConditionalPredictor vlp(k, assignment);
        simulator.addConditional(&gshare);
        simulator.addConditional(&flp);
        if (have_assignment)
            simulator.addConditional(&vlp);
        simulator.run(trace);
        results = simulator.conditionalResults();
    }
    util::TablePrinter table(
        {"predictor", "size (bytes)", "mispredict (%)"});
    for (const auto &result : results) {
        table.addRow({result.name, std::to_string(result.sizeBytes),
                      util::formatDouble(result.rate(), 2)});
    }
    table.print(std::cout);
    if (!indirect) {
        const auto ras = simulator.rasResult();
        std::cout << "returns (RAS): "
                  << util::formatDouble(ras.rate(), 2) << "% of "
                  << util::formatScaled(ras.branches) << "\n";
    }
    return 0;
}

int
cmdTop(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim top",
        "rank conditional branches by gshare misprediction share");
    parser.addPositional("trace.vbt", "input trace");
    parser.addPositional("bytes", "predictor table budget in bytes");
    parser.addPositional("count", "branches to show (default 15)",
                         false);
    const auto args = parser.parse(argc, argv, 2);

    auto trace = trace::loadTrace(args[0]);
    const std::size_t bytes =
        std::strtoul(args[1].c_str(), nullptr, 0);
    const std::size_t count =
        args.size() > 2 ? std::strtoul(args[2].c_str(), nullptr, 0)
                        : 15;
    const unsigned k = pred::conditionalIndexBits(bytes);

    pred::GsharePredictor gshare(k);
    core::PathConditionalPredictor flp(k, 5);
    sim::Simulator simulator;
    simulator.setTrackPerBranch(true);
    simulator.addConditional(&gshare);
    simulator.addConditional(&flp);
    simulator.run(trace);

    const auto &gshare_stats = simulator.conditionalPerBranch(0);
    const auto &flp_stats = simulator.conditionalPerBranch(1);
    const std::uint64_t total =
        simulator.conditionalResults()[0].branches;

    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked;
    ranked.reserve(gshare_stats.size());
    for (const auto &[pc, accuracy] : gshare_stats)
        ranked.emplace_back(accuracy.mispredictions, pc);
    std::sort(ranked.rbegin(), ranked.rend());

    util::TablePrinter table({"pc", "executions", "gshare miss (%)",
                              "path(5) miss (%)",
                              "share of gshare misses (%)"});
    const std::uint64_t total_misses =
        simulator.conditionalResults()[0].mispredictions;
    for (std::size_t i = 0; i < count && i < ranked.size(); ++i) {
        const std::uint64_t pc = ranked[i].second;
        const auto &g = gshare_stats.at(pc);
        const auto &f = flp_stats.at(pc);
        char pc_text[32];
        std::snprintf(pc_text, sizeof(pc_text), "0x%llx",
                      static_cast<unsigned long long>(pc));
        table.addRow({
            pc_text,
            std::to_string(g.executions),
            util::formatDouble(
                util::percent(g.mispredictions, g.executions), 1),
            util::formatDouble(
                util::percent(f.mispredictions, f.executions), 1),
            util::formatDouble(
                util::percent(g.mispredictions, total_misses), 1),
        });
    }
    std::cout << "top mispredicted conditional branches under gshare ("
              << util::formatScaled(total) << " branches total):\n";
    table.print(std::cout);
    return 0;
}

/** `suite --traces DIR`: the external-trace ingestion pipeline. */
int
cmdSuiteTraces(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim suite --traces",
        "run the paper's methodology over an external .vbt corpus "
        "through the hardened ingestion pipeline");
    std::string directory;
    std::string pairs;
    parser.addString("--traces", "DIR",
                     "directory scanned recursively for .vbt traces",
                     &directory);
    parser.addString("--pairs", "FILE",
                     "profile/test pair manifest (default: DIR/pairs.txt "
                     "when present, else the .profile.vbt/.test.vbt "
                     "name convention)",
                     &pairs);
    trace::ReadMode read_mode = trace::ReadMode::Auto;
    addReadModeFlag(parser, &read_mode);
    sim::RunOptions run;
    run.registerFlags(parser);
    sim::OutputOptions output;
    output.registerFlags(parser);
    parser.addPositional(
        "bytes", "predictor table budget in bytes (default 8192)",
        false);
    const auto args = parser.parse(argc, argv, 2);
    if (directory.empty())
        parser.fail("--traces is required");

    const auto store = run.openStore();
    sim::TraceSuiteOptions options;
    options.directory = directory;
    options.manifest = pairs;
    options.jobs = static_cast<unsigned>(run.jobs);
    options.readMode = read_mode;
    options.store = store;
    if (!args.empty()) {
        options.bytes = std::strtoul(args[0].c_str(), nullptr, 0);
        if (options.bytes == 0) {
            util::fatal("table budget must be a positive byte "
                        "count");
        }
    }

    sim::TraceSuiteRunner runner(std::move(options));
    const sim::SuiteReport suite = runner.run();

    sim::Report report = suite.toReport();
    if (store) {
        const store::StoreCounters counters = store->counters();
        report.setMeta("cacheHits", counters.hits);
        report.setMeta("cacheMisses", counters.misses);
        report.setMeta("cacheInserts", counters.inserts);
    }
    // Under an armed chaos switchboard the export carries per-section
    // injection counters (docs/FORMATS.md), so a soak artifact records
    // exactly which faults this run exercised.
    if (util::chaos::enabled()) {
        for (const auto &[section, stats] : util::chaos::counters()) {
            report.setMeta(
                "chaos:" + section,
                "activated=" + std::to_string(stats.activated ? 1 : 0)
                    + " reached=" + std::to_string(stats.reached)
                    + " fired=" + std::to_string(stats.fired)
                    + " skipped=" + std::to_string(stats.skipped));
        }
    }
    output.write(report);
    // The store's traffic goes to stderr, as for `suite`: on a rerun
    // of a killed run its hits are the resumed work.
    sim::reportCacheCounters(store.get());
    // Exit codes distinguish the three failure shapes: 2 = the corpus
    // had no .vbt traces at all (empty or mistyped directory), 1 =
    // traces were found but every pair failed, 0 = at least one pair
    // produced results (a partially failed corpus still counts).
    if (suite.empty()) {
        std::cerr << "error: no .vbt traces found under " << directory
                  << "\n";
        return 2;
    }
    return suite.allFailed() ? 1 : 0;
}

int
cmdSuite(int argc, char **argv)
{
    for (int i = 2; i < argc; ++i) {
        const std::string argument = argv[i];
        if (argument == "--traces"
            || argument.rfind("--traces=", 0) == 0) {
            return cmdSuiteTraces(argc, argv);
        }
    }

    util::ArgParser parser(
        "vlpsim suite",
        "profile and compare the paper's predictors over the "
        "synthetic benchmark suite (use --traces DIR for the "
        "external-trace mode)");
    parser.addPositional("cond|ind", "branch class");
    parser.addPositional("bytes", "predictor table budget in bytes");
    sim::RunOptions run;
    run.registerFlags(parser);
    sim::OutputOptions output;
    output.registerFlags(parser);
    const auto args = parser.parse(argc, argv, 2);

    sim::SuiteCompareSpec spec;
    spec.indirect = parseIndirect(args[0]);
    spec.bytes = std::strtoul(args[1].c_str(), nullptr, 0);
    spec.jobs = static_cast<unsigned>(run.jobs);
    if (spec.bytes == 0)
        util::fatal("table budget must be a positive byte count");

    const auto start = std::chrono::steady_clock::now();
    // The report comes from the shared service — the same code path
    // the serve daemon runs, which is what keeps daemon answers
    // byte-identical to this subcommand's output.
    const auto cache = run.openStore();
    sim::ServiceResult result = sim::runSuiteCompare(spec, cache);
    sim::Report report = std::move(result.report);
    if (cache) {
        const store::StoreCounters counters = cache->counters();
        report.setMeta("cacheHits", counters.hits);
        report.setMeta("cacheMisses", counters.misses);
        report.setMeta("cacheInserts", counters.inserts);
    }
    output.write(report);

    // Throughput goes to stderr so stdout stays bit-identical across
    // --jobs values.
    const double seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    const double per_second = seconds > 0.0
        ? static_cast<double>(result.predictions) / seconds
        : 0.0;
    std::cerr << "run summary: "
              << util::formatCount(result.predictions)
              << " branch predictions in "
              << util::formatDouble(seconds, 2) << " s ("
              << util::formatScaled(
                     static_cast<std::uint64_t>(per_second))
              << " branches/s; jobs=" << result.jobs << ")\n";
    sim::reportCacheCounters(cache.get());
    return 0;
}

int
cmdValidate(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim validate",
        "check a --format json export against the vlpsim-report "
        "schema (docs/FORMATS.md)");
    parser.addPositional("report.json",
                         "report produced by --format json");
    const auto args = parser.parse(argc, argv, 2);

    std::ifstream in(args[0], std::ios::binary);
    if (!in)
        util::fatal("cannot open report: " + args[0]);
    std::ostringstream buffer;
    buffer << in.rdbuf();

    const util::Json document = util::Json::parse(buffer.str());
    const std::vector<std::string> problems =
        sim::validateReportJson(document);
    if (!problems.empty()) {
        for (const std::string &problem : problems)
            std::cerr << args[0] << ": " << problem << "\n";
        return 1;
    }
    std::cout << args[0] << ": valid vlpsim-report v"
              << sim::reportSchemaVersion << "\n";
    return 0;
}

int
cmdCache(int argc, char **argv)
{
    util::ArgParser parser("vlpsim cache",
                           "inspect or maintain an artifact cache");
    parser.addPositional("stats|verify|clear", "action");
    parser.addPositional("dir", "cache directory");
    const auto args = parser.parse(argc, argv, 2);
    const std::string &action = args[0];
    const std::string &directory = args[1];
    if (action == "stats") {
        const auto summary = store::ArtifactStore::summarize(directory);
        std::cout << "cache " << directory << ": " << summary.entries
                  << " entries, " << summary.bytes << " bytes\n"
                  << "lifetime: " << summary.lifetime.hits << " hits, "
                  << summary.lifetime.misses << " misses, "
                  << summary.lifetime.inserts << " inserts, "
                  << summary.lifetime.corrupt << " corrupt, "
                  << summary.lifetime.evicted << " evicted\n";
        return 0;
    }
    if (action == "verify") {
        const auto result = store::ArtifactStore::verify(directory);
        std::cout << result.ok << " entries ok, " << result.corrupt
                  << " corrupt (removed)\n";
        return result.corrupt == 0 ? 0 : 1;
    }
    if (action == "clear") {
        const std::uint64_t removed =
            store::ArtifactStore::clear(directory);
        std::cout << "removed " << removed << " entries\n";
        return 0;
    }
    parser.fail("action must be 'stats', 'verify', or 'clear'");
}

int
cmdImport(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim import",
        "convert a text trace to the binary .vbt format");
    parser.addPositional("in.txt", "text trace (one branch per line)");
    parser.addPositional("out.vbt", "output binary trace");
    const auto args = parser.parse(argc, argv, 2);
    auto trace = trace::loadTextTrace(args[0]);
    trace::saveTrace(trace, args[1]);
    std::cout << "imported " << util::formatScaled(trace.size())
              << " records -> " << args[1] << "\n";
    return 0;
}

int
cmdExport(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim export",
        "convert a binary .vbt trace to the text format");
    parser.addPositional("in.vbt", "binary trace");
    parser.addPositional("out.txt", "output text trace");
    const auto args = parser.parse(argc, argv, 2);
    auto trace = trace::loadTrace(args[0]);
    trace::saveTextTrace(trace, args[1]);
    std::cout << "exported " << util::formatScaled(trace.size())
              << " records -> " << args[1] << "\n";
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim convert",
        "leniently import an external text branch log (malformed "
        "lines are skipped and reported)");
    parser.addPositional("in.txt", "text branch log");
    parser.addPositional("out.vbt", "output binary trace");
    trace::ReadMode read_mode = trace::ReadMode::Auto;
    addReadModeFlag(parser, &read_mode);
    const auto args = parser.parse(argc, argv, 2);
    // The lenient parser wants an istream; ByteFileStreamBuf adapts
    // the fast byte-file (zero-copy windows when the log maps, plain
    // stdio otherwise) without changing the parsing.
    std::unique_ptr<trace::ByteFile> file;
    try {
        file = trace::openByteFileFast(args[0], read_mode);
    } catch (const std::exception &error) {
        util::fatal("cannot open text trace: " + args[0] + " ("
                    + error.what() + ")");
    }
    trace::ByteFileStreamBuf stream_buffer(*file);
    std::istream in(&stream_buffer);
    trace::ConvertReport report;
    auto trace = trace::readTextTraceLenient(in, report);
    for (const std::string &diagnostic : report.diagnostics)
        std::cerr << args[0] << ": " << diagnostic << "\n";
    if (report.skipped > report.diagnostics.size()) {
        std::cerr << args[0] << ": ... and "
                  << report.skipped - report.diagnostics.size()
                  << " more malformed lines\n";
    }
    if (report.imported == 0)
        util::fatal("no usable records in " + args[0]);
    trace::saveTrace(trace, args[1]);
    std::cout << "converted " << util::formatScaled(report.imported)
              << " records (" << report.skipped
              << " malformed lines skipped) -> " << args[1] << "\n";
    return 0;
}

/**
 * The subcommand table. The top-level help below is generated from
 * it, so a new subcommand is one entry here plus its handler.
 */
const cli::Command commandTable[] = {
    {"list", "",
     "print the benchmark suite with its Table-1 parameters",
     cmdList},
    {"gen", "<benchmark> <profile|test> <out.vbt> [scale]",
     "generate a synthetic branch trace as a .vbt file", cmdGen},
    {"stats", "<trace.vbt>",
     "print Table-1-style statistics for a trace file", cmdStats},
    {"profile",
     "<trace.vbt> <bytes> <cond|ind> <out.asgn> [--read-mode M]",
     "run the paper's two-step profiling heuristic over a trace",
     cmdProfile},
    {"eval", "<trace.vbt> <bytes> <cond|ind> [assignment]",
     "evaluate the paper's predictors on a trace", cmdEval},
    {"top", "<trace.vbt> <bytes> [count]",
     "rank conditional branches by gshare misprediction share",
     cmdTop},
    {"suite", "<cond|ind> <bytes> | --traces <dir> [bytes]",
     "profile and compare the paper's predictors over a suite",
     cmdSuite},
    {"validate", "<report.json>",
     "check an export against the vlpsim-report schema", cmdValidate},
    {"cache", "<stats|verify|clear> <dir>",
     "inspect or maintain an artifact cache", cmdCache},
    {"import", "<in.txt> <out.vbt>",
     "convert a text trace to the binary .vbt format", cmdImport},
    {"export", "<in.vbt> <out.txt>",
     "convert a binary .vbt trace to the text format", cmdExport},
    {"convert", "<in.txt> <out.vbt>",
     "leniently import an external text branch log", cmdConvert},
    {"serve", "[--listen EP] [--workers N] [cache flags]",
     "run the async experiment daemon (see docs/FORMATS.md)",
     cli::cmdServe},
    {"submit", "--server EP [--op OP] [spec flags]",
     "submit an experiment to a serve daemon", cli::cmdSubmit},
    {"status", "--server EP [id]",
     "query a serve daemon (server-wide or one request)",
     cli::cmdServeStatus},
    {"cancel", "--server EP <id>",
     "cancel a queued or running request", cli::cmdServeCancel},
    {"shutdown", "--server EP",
     "ask a serve daemon to drain and stop", cli::cmdServeShutdown},
    {"chaos", "--seed S [--suite DIR] [--serve] [--requests N]",
     "run a seeded fault-injection soak campaign and verify the "
     "robustness invariants", cli::cmdChaos},
};

void
printCommands(std::ostream &out)
{
    out << "usage: vlpsim [--log-level LEVEL] <command> [args]\n"
        << "commands:\n";
    for (const cli::Command &command : commandTable) {
        out << "  vlpsim " << command.name;
        if (command.usage[0] != '\0')
            out << " " << command.usage;
        out << "\n      " << command.summary << "\n";
    }
    out << "run 'vlpsim <command> --help' for per-command flags "
           "(--format ascii|csv|json, --out FILE, cache flags, ...); "
           "'vlpsim --version' prints build info\n";
}

int
usage()
{
    printCommands(std::cerr);
    return 2;
}

int
printVersion()
{
    std::cout << "vlpsim " << util::buildVersion()
              << " (vlpsim-report schema v" << sim::reportSchemaVersion
              << ", serve protocol v" << serve::protocolVersion
              << ")\n";
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Global flags sit before the subcommand; the handlers re-parse
    // from their own argv[1].
    util::chaos::Config chaos_config;
    while (argc >= 2 && argv[1][0] == '-') {
        const std::string flag = argv[1];
        if (flag == "--help" || flag == "-h") {
            printCommands(std::cout);
            return 0;
        }
        if (flag == "--version") {
            return printVersion();
        }
        if (flag == "--log-level" && argc >= 3) {
            try {
                util::setLogLevel(util::parseLogLevel(argv[2]));
            } catch (const std::exception &error) {
                std::cerr << "error: " << error.what() << "\n";
                return 2;
            }
            argv += 2;
            argc -= 2;
            continue;
        }
        if (flag == "--chaos") {
            chaos_config.enabled = true;
            argv += 1;
            argc -= 1;
            continue;
        }
        if (flag == "--chaos-seed" && argc >= 3) {
            chaos_config.enabled = true;
            chaos_config.seed = std::strtoull(argv[2], nullptr, 0);
            argv += 2;
            argc -= 2;
            continue;
        }
        if (flag == "--chaos-activate" && argc >= 3) {
            chaos_config.enabled = true;
            chaos_config.activateProbability =
                std::strtod(argv[2], nullptr);
            argv += 2;
            argc -= 2;
            continue;
        }
        if (flag == "--chaos-fire" && argc >= 3) {
            chaos_config.enabled = true;
            chaos_config.fireProbability = std::strtod(argv[2], nullptr);
            argv += 2;
            argc -= 2;
            continue;
        }
        return usage();
    }
    if (chaos_config.enabled)
        util::chaos::configure(chaos_config);
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    try {
        for (const cli::Command &entry : commandTable) {
            if (command == entry.name)
                return entry.handler(argc, argv);
        }
    } catch (const util::net::TimeoutError &error) {
        // Distinct exit code so scripts can tell "the daemon went
        // silent" from every other failure.
        std::cerr << "error: " << error.what() << "\n";
        return 3;
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    return usage();
}
