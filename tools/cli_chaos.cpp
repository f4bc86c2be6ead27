/**
 * @file
 * `vlpsim chaos` — the seeded fault-injection soak campaign.
 *
 * Arms the util::chaos switchboard (DESIGN.md §16) and drives the
 * system through its hazard points, then verifies the robustness
 * invariants the rest of the codebase promises:
 *
 *   suite path (--suite DIR)
 *     - a chaos run completes (no hang, no crash) over the corpus
 *     - the same seed replays exactly: per-section fired counters,
 *       the quarantine set, and the rendered report are identical
 *       across two runs from identically-warmed state
 *     - every quarantined pair carries a cause
 *     - with no quarantines the chaos report is byte-identical to
 *       the chaos-off baseline; with quarantines, a chaos-off rerun
 *       pinned to the chaos run's global history lengths matches on
 *       every surviving pair
 *   store GC sweep (runs with --suite)
 *     - a bounded store soaked with torn inserts, checksum faults,
 *       and GC reader races stays functional, and the fault pattern
 *       replays exactly from the seed
 *   serve path (--serve)
 *     - every accepted request reaches a terminal state, through
 *       dropped accepts, queue-full admission, step-boundary
 *       cancellations, heartbeat stalls, and slow writes
 *     - lifetime stats stay consistent: accepted ==
 *       completed + cancelled + failed after a drain
 *     - completed suite answers are byte-identical to a chaos-off
 *       reference report
 *
 * Any violation prints the seed (the whole campaign is a pure
 * function of it) and exits 1. --out FILE writes a JSON summary —
 * per-section counters plus verdicts — for CI artifact aggregation.
 */

#include "cli_commands.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "serve/client.h"
#include "serve/server.h"
#include "sim/report.h"
#include "sim/service.h"
#include "sim/suite_runner.h"
#include "store/artifact_store.h"
#include "store/cache_key.h"
#include "util/args.h"
#include "util/chaos.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/table.h"

namespace fs = std::filesystem;

namespace vlp {
namespace cli {

namespace {

using ChaosCounters = std::map<std::string, util::chaos::SectionStats>;

/** Campaign knobs, straight from the flags. */
struct ChaosArgs
{
    std::uint64_t seed = 1;
    double activate = 0.75;
    double fire = 0.25;
    std::string suiteDirectory;
    bool serve = false;
    unsigned requests = 6;
    unsigned jobs = 2;
    std::size_t bytes = 8 * 1024;
    std::string outFile;
};

/** Everything the campaign learned, for the verdict and --out. */
struct CampaignResult
{
    std::vector<std::string> violations;
    /** Per-section counters merged across phases (sums; OR on
     *  activated). */
    ChaosCounters sections;
    bool suiteRan = false;
    std::size_t suiteOk = 0;
    std::size_t suiteQuarantined = 0;
    bool serveRan = false;
    std::uint64_t serveAccepted = 0;
    std::uint64_t serveRejected = 0;
    std::uint64_t serveCompleted = 0;
    std::uint64_t serveCancelled = 0;
    std::uint64_t serveFailed = 0;

    void flag(const std::string &what)
    {
        violations.push_back(what);
        util::warn("chaos invariant violated: " + what);
    }

    void merge(const ChaosCounters &counters)
    {
        for (const auto &[name, stats] : counters) {
            util::chaos::SectionStats &into = sections[name];
            into.activated = into.activated || stats.activated;
            into.reached += stats.reached;
            into.fired += stats.fired;
            into.skipped += stats.skipped;
        }
    }
};

util::chaos::Config
campaignConfig(const ChaosArgs &args)
{
    util::chaos::Config config;
    config.enabled = true;
    config.seed = args.seed;
    config.activateProbability = args.activate;
    config.fireProbability = args.fire;
    return config;
}

/** Deterministic text rendering of a suite report. */
std::string
renderSuite(const sim::SuiteReport &report)
{
    std::ostringstream out;
    report.print(out);
    return out.str();
}

std::vector<std::string>
quarantinedNames(const sim::SuiteReport &report)
{
    std::vector<std::string> names;
    for (const sim::TraceOutcome &outcome : report.traces) {
        if (outcome.status == sim::TraceStatus::Quarantined)
            names.push_back(outcome.name);
    }
    return names;
}

/** Copy of @p report without the pairs named in @p drop, so two runs
 *  that diverge only by quarantines can be compared byte-for-byte. */
sim::SuiteReport
withoutPairs(const sim::SuiteReport &report,
             const std::set<std::string> &drop)
{
    sim::SuiteReport filtered = report;
    filtered.traces.clear();
    for (const sim::TraceOutcome &outcome : report.traces) {
        if (drop.count(outcome.name) == 0)
            filtered.traces.push_back(outcome);
    }
    return filtered;
}

/** One external-trace suite run over the campaign corpus. */
sim::SuiteReport
runSuiteOnce(const ChaosArgs &args, const fs::path &store_dir,
             const fs::path &checkpoint,
             std::optional<unsigned> force_cond = std::nullopt,
             std::optional<unsigned> force_ind = std::nullopt)
{
    store::StoreOptions store_options;
    store_options.directory = store_dir.string();

    sim::TraceSuiteOptions options;
    options.directory = args.suiteDirectory;
    options.bytes = args.bytes;
    options.jobs = args.jobs;
    options.checkpoint = checkpoint.string();
    options.retry.jitterSeed = args.seed;
    options.store = std::make_shared<store::ArtifactStore>(store_options);
    options.forceGlobalConditionalLength = force_cond;
    options.forceGlobalIndirectLength = force_ind;
    sim::TraceSuiteRunner runner(std::move(options));
    return runner.run();
}

/**
 * The suite campaign: chaos-off warm/baseline run, then a chaos run,
 * from identically-prepared state on two independent store/journal
 * sets — so the chaos runs must replay each other exactly.
 */
void
runSuiteCampaign(const ChaosArgs &args, const fs::path &work,
                 CampaignResult &result)
{
    result.suiteRan = true;

    // Leg A: chaos-off baseline (which also warms store-a), then the
    // chaos run over the warmed store.
    util::chaos::disable();
    const sim::SuiteReport baseline = runSuiteOnce(
        args, work / "store-a", work / "journal-base-a");
    const std::string baseline_text = renderSuite(baseline);

    util::chaos::configure(campaignConfig(args));
    const sim::SuiteReport chaos_a = runSuiteOnce(
        args, work / "store-a", work / "journal-a");
    const ChaosCounters counters_a = util::chaos::counters();
    const std::string text_a = renderSuite(chaos_a);

    // Leg B: fresh store, same chaos-off warm-up, same seed.
    util::chaos::disable();
    const sim::SuiteReport warm_b = runSuiteOnce(
        args, work / "store-b", work / "journal-base-b");
    if (renderSuite(warm_b) != baseline_text) {
        result.flag("suite: two chaos-off runs disagree (determinism "
                    "broken before any fault was injected)");
    }

    util::chaos::configure(campaignConfig(args));
    const sim::SuiteReport chaos_b = runSuiteOnce(
        args, work / "store-b", work / "journal-b");
    const ChaosCounters counters_b = util::chaos::counters();
    util::chaos::disable();

    result.suiteOk = chaos_a.okCount();
    result.suiteQuarantined = chaos_a.quarantinedCount();
    result.merge(counters_a);

    // Replay: same seed, same workload, same initial state — the two
    // chaos runs must agree on every count and every byte.
    if (counters_a != counters_b) {
        result.flag("suite: per-section chaos counters differ between "
                    "two runs of seed " + std::to_string(args.seed));
    }
    if (text_a != renderSuite(chaos_b)) {
        result.flag("suite: report text differs between two runs of "
                    "seed " + std::to_string(args.seed));
    }
    const std::vector<std::string> quarantined_a =
        quarantinedNames(chaos_a);
    if (quarantined_a != quarantinedNames(chaos_b)) {
        result.flag("suite: quarantine sets differ between two runs "
                    "of seed " + std::to_string(args.seed));
    }

    // Every quarantine must say why.
    for (const sim::TraceOutcome &outcome : chaos_a.traces) {
        if (outcome.status == sim::TraceStatus::Quarantined
            && outcome.cause.empty()) {
            result.flag("suite: pair '" + outcome.name
                        + "' quarantined without a cause");
        }
    }

    // Chaos-off comparison. Faults may quarantine pairs but must
    // never change a surviving pair's numbers.
    if (quarantined_a.empty()) {
        if (text_a != baseline_text) {
            result.flag("suite: no pair was quarantined, yet the "
                        "chaos report differs from the chaos-off "
                        "baseline");
        }
    } else {
        // A quarantined pair drops out of the suite-average global
        // history lengths, shifting every other row. Pin a chaos-off
        // rerun to the chaos run's globals and compare the survivors.
        const sim::SuiteReport masked = runSuiteOnce(
            args, work / "store-a", work / "journal-mask",
            chaos_a.globalConditionalLength,
            chaos_a.globalIndirectLength);
        const std::set<std::string> drop(quarantined_a.begin(),
                                         quarantined_a.end());
        const std::string survivors_chaos =
            renderSuite(withoutPairs(chaos_a, drop));
        const std::string survivors_masked =
            renderSuite(withoutPairs(masked, drop));
        if (survivors_chaos != survivors_masked) {
            result.flag("suite: a surviving pair's results changed "
                        "under chaos (faults must only quarantine, "
                        "never corrupt)");
            std::ofstream(work / "survivors-chaos.txt")
                << survivors_chaos;
            std::ofstream(work / "survivors-masked.txt")
                << survivors_masked;
        }
    }
}

/**
 * The bounded-store GC sweep: single-threaded inserts and re-fetches
 * over a store small enough that garbage collection runs, so the
 * store.gc.* / store.insert.* / store.fetch.* sections soak under a
 * replay-checked workload.
 */
ChaosCounters
runGcSweepOnce(const ChaosArgs &args, const fs::path &dir)
{
    util::chaos::configure(campaignConfig(args));
    store::StoreOptions options;
    options.directory = dir.string();
    options.maxBytes = 4096;
    store::ArtifactStore store(options);
    const std::vector<std::uint8_t> payload(512, 0xA5);
    for (std::uint64_t i = 0; i < 32; ++i) {
        const store::CacheKey key = store::KeyBuilder("chaos-gc-soak")
                                        .field("i", i)
                                        .build();
        store.insert(key, payload);
        // Re-fetch an older key: a hit goes through checksum
        // validation (and its chaos section); a GC-evicted or
        // chaos-corrupted entry is simply a miss.
        const store::CacheKey old = store::KeyBuilder("chaos-gc-soak")
                                        .field("i", i / 2)
                                        .build();
        const auto fetched = store.fetch(old);
        if (fetched && fetched->size() != payload.size()) {
            throw std::runtime_error(
                "gc sweep: fetch returned a corrupt payload without "
                "flagging it");
        }
    }
    const ChaosCounters counters = util::chaos::counters();
    util::chaos::disable();
    return counters;
}

void
runGcCampaign(const ChaosArgs &args, const fs::path &work,
              CampaignResult &result)
{
    const ChaosCounters first = runGcSweepOnce(args, work / "gc-a");
    const ChaosCounters second = runGcSweepOnce(args, work / "gc-b");
    if (first != second) {
        result.flag("gc sweep: chaos counters differ between two "
                    "runs of seed " + std::to_string(args.seed));
    }
    result.merge(first);
}

/** Connect + handshake with retries: chaos may drop the accept or
 *  stall the hello, and the campaign must ride through it. */
std::unique_ptr<serve::ServeClient>
connectWithRetry(const util::net::Endpoint &endpoint)
{
    for (int attempt = 0;; ++attempt) {
        try {
            return std::make_unique<serve::ServeClient>(endpoint,
                                                        5000);
        } catch (const std::runtime_error &) {
            if (attempt >= 50)
                throw;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

/** Poll one request's state until it is terminal. */
std::string
awaitTerminalState(serve::ServeClient &client, std::uint64_t id)
{
    for (int spin = 0; spin < 400; ++spin) {
        const util::Json frame = client.status(id);
        const util::Json *type = frame.find("type");
        if (type != nullptr && type->isString()
            && type->asString() == "error")
            return "error";
        const util::Json *state = frame.find("state");
        const std::string text =
            state != nullptr && state->isString() ? state->asString()
                                                  : std::string();
        if (text == "done" || text == "cancelled" || text == "failed")
            return text;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return "wedged";
}

/**
 * The serve campaign: an in-process daemon with chaos armed, a
 * deterministic request mix (suite answers, sleeps, client
 * cancellations), and the terminal-state/stats/byte-identity
 * invariants checked after a drain. Counter replay is not asserted
 * here — heartbeat and send reaches are timing-dependent by nature —
 * but every lifecycle invariant must hold under any interleaving.
 */
void
runServeCampaign(const ChaosArgs &args, const fs::path &work,
                 CampaignResult &result)
{
    result.serveRan = true;

    // Chaos-off reference for the suite answers, computed before the
    // switchboard arms: the daemon's result frames must match it
    // byte-for-byte no matter which faults fire.
    sim::SuiteCompareSpec suite_spec;
    suite_spec.indirect = false;
    suite_spec.bytes = args.bytes;
    suite_spec.jobs = 1;
    util::chaos::disable();
    sim::Report reference = sim::runSuiteCompare(suite_spec).report;
    sim::stampBuildInfo(reference);
    std::ostringstream reference_json;
    sim::JsonReportSink sink;
    sink.write(reference, reference_json);
    const std::string reference_compact =
        util::toCompactJson(util::Json::parse(reference_json.str()));

    serve::ServerOptions options;
    options.listen = util::net::Endpoint::parse("127.0.0.1:0");
    options.workers = 2;
    options.heartbeatMs = 25;
    options.sendTimeoutMs = 5000;
    options.finishedWindow = 2 * args.requests + 16;
    options.cacheDirectory = (work / "serve-store").string();
    options.chaos = campaignConfig(args);
    serve::ExperimentServer server(std::move(options));
    server.start();

    std::vector<std::uint64_t> accepted_ids;
    std::uint64_t rejected = 0;
    for (unsigned r = 0; r < args.requests; ++r) {
        std::unique_ptr<serve::ServeClient> client =
            connectWithRetry(server.endpoint());

        serve::SubmitSpec spec;
        const bool cancel_it = r % 4 == 2;
        if (r % 4 == 0 || r % 4 == 1) {
            spec.op = "suite";
            spec.suite = suite_spec;
        } else {
            spec.op = "sleep";
            spec.sleepMs = cancel_it ? 400 : 50;
        }

        serve::ServeClient::Submission submission;
        try {
            submission = client->submit(spec);
        } catch (const std::runtime_error &) {
            // The connection died mid-submit (dropped accept raced
            // the handshake, peer reset under a slow write): the
            // request was never accepted, which is a legal outcome.
            ++rejected;
            continue;
        }
        if (!submission.accepted) {
            ++rejected;
            continue;
        }
        accepted_ids.push_back(submission.id);

        try {
            if (cancel_it) {
                client->cancel(submission.id);
                const std::string state =
                    awaitTerminalState(*client, submission.id);
                if (state == "wedged") {
                    result.flag(
                        "serve: request "
                        + std::to_string(submission.id)
                        + " never reached a terminal state after "
                          "cancel");
                }
            } else {
                const util::Json terminal =
                    client->await(submission.id);
                const std::string &type =
                    terminal.at("type").asString();
                if (type == "result" && spec.op == "suite") {
                    const std::string got = util::toCompactJson(
                        terminal.at("report"));
                    if (got != reference_compact) {
                        result.flag(
                            "serve: request "
                            + std::to_string(submission.id)
                            + " returned a report that differs from "
                              "the chaos-off reference");
                    }
                }
            }
        } catch (const std::runtime_error &error) {
            // The stream died after admission (peer dropped, receive
            // timed out). The request is still owned by the daemon;
            // the post-drain sweep below must find it terminal.
            util::warn(std::string("chaos campaign: stream lost for "
                                   "request ")
                       + std::to_string(submission.id) + " ("
                       + error.what() + ")");
        }
    }

    // Drain: everything admitted must finish, and the books must
    // balance exactly.
    server.requestDrain();
    server.awaitIdle();

    std::unique_ptr<serve::ServeClient> checker =
        connectWithRetry(server.endpoint());
    for (const std::uint64_t id : accepted_ids) {
        const std::string state = awaitTerminalState(*checker, id);
        if (state != "done" && state != "cancelled"
            && state != "failed") {
            result.flag("serve: request " + std::to_string(id)
                        + " is '" + state
                        + "' after drain (expected terminal)");
        }
    }
    checker.reset();

    const serve::ServerStats stats = server.stats();
    server.stop();
    result.merge(util::chaos::counters());
    util::chaos::disable();

    result.serveAccepted = stats.accepted;
    result.serveRejected = stats.rejected;
    result.serveCompleted = stats.completed;
    result.serveCancelled = stats.cancelled;
    result.serveFailed = stats.failed;
    if (stats.accepted != accepted_ids.size()) {
        result.flag("serve: daemon counted "
                    + std::to_string(stats.accepted)
                    + " accepted requests, campaign submitted "
                    + std::to_string(accepted_ids.size()));
    }
    if (stats.accepted
        != stats.completed + stats.cancelled + stats.failed) {
        result.flag(
            "serve: stats do not balance after drain (accepted "
            + std::to_string(stats.accepted) + " != completed "
            + std::to_string(stats.completed) + " + cancelled "
            + std::to_string(stats.cancelled) + " + failed "
            + std::to_string(stats.failed) + ")");
    }
    (void)rejected;
}

void
writeSummary(const ChaosArgs &args, const CampaignResult &result)
{
    util::JsonWriter writer;
    writer.beginObject();
    writer.member("seed", args.seed);
    writer.member("activateProbability", args.activate);
    writer.member("fireProbability", args.fire);
    writer.member("ok", result.violations.empty());
    writer.key("violations");
    writer.beginArray();
    for (const std::string &violation : result.violations)
        writer.value(violation);
    writer.endArray();
    writer.key("sections");
    writer.beginObject();
    // Every registered section appears, reached or not, so CI
    // coverage aggregation never has to special-case absence.
    for (const std::string &name : util::chaos::knownSections()) {
        util::chaos::SectionStats stats;
        const auto found = result.sections.find(name);
        if (found != result.sections.end())
            stats = found->second;
        writer.key(name);
        writer.beginObject();
        writer.member("activated", stats.activated);
        writer.member("reached", stats.reached);
        writer.member("fired", stats.fired);
        writer.member("skipped", stats.skipped);
        writer.endObject();
    }
    writer.endObject();
    writer.key("suite");
    writer.beginObject();
    writer.member("ran", result.suiteRan);
    writer.member("ok", std::uint64_t{result.suiteOk});
    writer.member("quarantined",
                  std::uint64_t{result.suiteQuarantined});
    writer.endObject();
    writer.key("serve");
    writer.beginObject();
    writer.member("ran", result.serveRan);
    writer.member("accepted", result.serveAccepted);
    writer.member("rejected", result.serveRejected);
    writer.member("completed", result.serveCompleted);
    writer.member("cancelled", result.serveCancelled);
    writer.member("failed", result.serveFailed);
    writer.endObject();
    writer.endObject();

    std::ofstream out(args.outFile, std::ios::binary);
    if (!out)
        util::fatal("cannot open output file: " + args.outFile);
    out << writer.str() << "\n";
}

} // anonymous namespace

int
cmdChaos(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim chaos",
        "run a seeded fault-injection soak campaign over the suite "
        "and/or serve paths and verify the robustness invariants: "
        "no hangs, terminal states everywhere, causes on every "
        "quarantine, and byte-exact replay from the seed");
    ChaosArgs args;
    std::uint64_t seed = 1;
    std::uint64_t requests = 6;
    std::uint64_t jobs = 2;
    std::uint64_t bytes = 8 * 1024;
    parser.addUint("--seed", "S",
                   "campaign seed; every fault decision derives from "
                   "it (default 1)",
                   &seed, ~std::uint64_t{0});
    parser.addString("--suite", "DIR",
                     "run the external-trace suite campaign over this "
                     ".vbt corpus",
                     &args.suiteDirectory);
    parser.addSwitch("--serve",
                     "run the serve campaign against an in-process "
                     "daemon",
                     &args.serve);
    parser.addUint("--requests", "N",
                   "serve campaign request count (default 6)",
                   &requests, 10'000);
    parser.addOption("--activate", "P",
                     "per-run section activation probability "
                     "(default 0.75)",
                     [&args](const std::string &value) {
                         args.activate =
                             std::strtod(value.c_str(), nullptr);
                     });
    parser.addOption("--fire", "P",
                     "per-reach fire probability for activated "
                     "sections (default 0.25)",
                     [&args](const std::string &value) {
                         args.fire =
                             std::strtod(value.c_str(), nullptr);
                     });
    parser.addUint("--jobs", "N",
                   "suite campaign worker threads (default 2)", &jobs,
                   4096);
    parser.addUint("--bytes", "N",
                   "predictor table budget (default 8192)", &bytes,
                   ~std::uint64_t{0});
    parser.addString("--out", "FILE",
                     "write a JSON campaign summary (counters + "
                     "verdicts) for CI aggregation",
                     &args.outFile);
    parser.parse(argc, argv, 2);
    args.seed = seed;
    args.requests = static_cast<unsigned>(requests);
    args.jobs = static_cast<unsigned>(jobs);
    args.bytes = static_cast<std::size_t>(bytes);
    if (args.suiteDirectory.empty() && !args.serve)
        parser.fail("nothing to soak: pass --suite DIR and/or --serve");

    const fs::path work =
        fs::temp_directory_path()
        / ("vlpsim-chaos-" + std::to_string(::getpid()) + "-"
           + std::to_string(args.seed));
    fs::create_directories(work);

    CampaignResult result;
    try {
        if (!args.suiteDirectory.empty()) {
            runSuiteCampaign(args, work, result);
            runGcCampaign(args, work, result);
        }
        if (args.serve)
            runServeCampaign(args, work, result);
    } catch (const std::exception &error) {
        // An escaped exception is itself a campaign failure: the
        // system must degrade (retry, quarantine, fail the request),
        // never fall over.
        result.flag(std::string("campaign aborted by exception: ")
                    + error.what());
        util::chaos::disable();
    }

    util::TablePrinter table(
        {"section", "activated", "reached", "fired", "skipped"});
    for (const std::string &name : util::chaos::knownSections()) {
        util::chaos::SectionStats stats;
        const auto found = result.sections.find(name);
        if (found != result.sections.end())
            stats = found->second;
        table.addRow({name, stats.activated ? "yes" : "no",
                      std::to_string(stats.reached),
                      std::to_string(stats.fired),
                      std::to_string(stats.skipped)});
    }
    table.print(std::cout);

    if (!args.outFile.empty())
        writeSummary(args, result);

    if (!result.violations.empty()) {
        std::cout << "chaos campaign seed " << args.seed << ": FAIL ("
                  << result.violations.size() << " violation"
                  << (result.violations.size() == 1 ? "" : "s")
                  << ")\n";
        for (const std::string &violation : result.violations)
            std::cout << "  - " << violation << "\n";
        std::cout << "replay with: vlpsim chaos --seed " << args.seed
                  << "; evidence kept in " << work.string() << "\n";
        return 1;
    }
    std::error_code discard;
    fs::remove_all(work, discard);
    std::cout << "chaos campaign seed " << args.seed << ": PASS\n";
    return 0;
}

} // namespace cli
} // namespace vlp
