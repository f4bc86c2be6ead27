/**
 * @file
 * Serve-family subcommands: the daemon plus its client verbs.
 *
 *   serve     run the async experiment daemon (SIGTERM drains)
 *   submit    submit one experiment (or a warm-throughput run with
 *             --repeat) and stream its result back
 *   status    query server-wide or per-request state
 *   cancel    cancel a queued or running request
 *   shutdown  ask a daemon to drain and stop
 *
 * The wire protocol is documented in docs/FORMATS.md; these commands
 * are thin wrappers over serve::ServeClient / serve::ExperimentServer.
 */

#include "cli_commands.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "serve/client.h"
#include "serve/server.h"
#include "sim/run_options.h"
#include "util/args.h"
#include "util/json.h"
#include "util/logging.h"

namespace vlp {
namespace cli {

namespace {

/** The daemon being signalled; a lock-free atomic because the
 *  handler reads what the main thread writes (set before the
 *  handlers install, cleared after run() returns). */
std::atomic<serve::ExperimentServer *> activeServer{nullptr};

extern "C" void
onTerminate(int)
{
    // Async-signal-safe: an atomic load plus one write to the
    // daemon's self-pipe (O_NONBLOCK, so a full pipe fails instead
    // of blocking inside the handler).
    if (serve::ExperimentServer *server = activeServer.load())
        server->notifyShutdown();
}

/** --server flag with the VLPSIM_SERVER environment default. */
std::string
serverDefault()
{
    if (const char *env = std::getenv("VLPSIM_SERVER"))
        return env;
    return "";
}

util::net::Endpoint
requireEndpoint(util::ArgParser &parser, const std::string &text)
{
    if (text.empty()) {
        parser.fail("--server is required (or set VLPSIM_SERVER)");
    }
    return util::net::Endpoint::parse(text);
}

void
registerLogLevel(util::ArgParser &parser)
{
    parser.addOption("--log-level", "LEVEL",
                     "log threshold: debug, info, warn, or error "
                     "(default: VLPSIM_LOG_LEVEL or info)",
                     [](const std::string &value) {
                         util::setLogLevel(util::parseLogLevel(value));
                     });
}

/** --timeout flag shared by the client verbs: bounds every receive
 *  so a wedged daemon cannot hang the client; expiry surfaces as
 *  util::net::TimeoutError, which the CLI maps to exit code 3. */
void
registerRecvTimeout(util::ArgParser &parser, std::uint64_t *timeout_ms)
{
    parser.addUint("--timeout", "MS",
                   "receive timeout per read; a silent daemon makes "
                   "the command exit with code 3 (default 0 = wait "
                   "forever)",
                   timeout_ms, 3'600'000);
}

} // anonymous namespace

int
cmdServe(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim serve",
        "run the async experiment daemon: newline-delimited JSON "
        "over a local socket, bounded request queue with admission "
        "control, cooperative cancellation, warm answers from the "
        "artifact cache; SIGTERM drains in-flight work, then exits");
    std::string listen = "127.0.0.1:7711";
    std::uint64_t workers = 2;
    std::uint64_t max_queue = 16;
    std::uint64_t max_inflight = 64u << 20;
    std::uint64_t max_jobs = 0;
    std::uint64_t heartbeat_ms = 1000;
    bool chaos_enabled = false;
    std::uint64_t chaos_seed = 1;
    double chaos_activate = 0.25;
    double chaos_fire = 0.25;
    parser.addString("--listen", "EP",
                     "listen endpoint: host:port, :port, or a Unix "
                     "socket path (default 127.0.0.1:7711; port 0 "
                     "picks an ephemeral port)",
                     &listen);
    parser.addUint("--workers", "N",
                   "concurrent experiment slots (default 2)", &workers,
                   256);
    parser.addUint("--max-queue", "N",
                   "queued-request admission limit (default 16; "
                   "0 = unlimited)",
                   &max_queue, 1u << 20);
    parser.addUint("--max-inflight-bytes", "N",
                   "byte budget across queued + running requests "
                   "(default 64 MiB; 0 = unlimited)",
                   &max_inflight, ~std::uint64_t{0});
    parser.addUint("--max-jobs", "N",
                   "clamp on any request's worker threads "
                   "(default 0 = no clamp)",
                   &max_jobs, 4096);
    parser.addUint("--heartbeat-ms", "N",
                   "heartbeat period for running requests "
                   "(default 1000; 0 disables)",
                   &heartbeat_ms, 3'600'000);
    parser.addSwitch("--chaos",
                     "arm the fault-injection switchboard for this "
                     "daemon (DESIGN.md §16)",
                     &chaos_enabled);
    parser.addOption("--chaos-seed", "N",
                     "chaos campaign seed (default 1; implies "
                     "--chaos)",
                     [&](const std::string &value) {
                         chaos_enabled = true;
                         chaos_seed =
                             std::strtoull(value.c_str(), nullptr, 0);
                     });
    parser.addOption("--chaos-activate", "P",
                     "per-run section activation probability "
                     "(default 0.25; implies --chaos)",
                     [&](const std::string &value) {
                         chaos_enabled = true;
                         chaos_activate =
                             std::strtod(value.c_str(), nullptr);
                     });
    parser.addOption("--chaos-fire", "P",
                     "per-reach fire probability for activated "
                     "sections (default 0.25; implies --chaos)",
                     [&](const std::string &value) {
                         chaos_enabled = true;
                         chaos_fire =
                             std::strtod(value.c_str(), nullptr);
                     });
    registerLogLevel(parser);
    sim::RunOptions run;
    run.registerCacheFlags(parser);
    parser.parse(argc, argv, 2);

    // Daemon logs get monotonic timestamps; one-shot CLI output
    // stays unstamped (byte-stable for golden tests).
    util::setLogTimestamps(true);

    serve::ServerOptions options;
    options.listen = util::net::Endpoint::parse(listen);
    options.workers = static_cast<unsigned>(workers);
    options.maxJobsPerRequest = static_cast<unsigned>(max_jobs);
    options.limits.maxDepth = static_cast<std::size_t>(max_queue);
    options.limits.maxInflightBytes =
        static_cast<std::size_t>(max_inflight);
    options.heartbeatMs = static_cast<unsigned>(heartbeat_ms);
    if (run.cacheEnabled()) {
        options.cacheDirectory = run.cacheDirectory;
        options.cacheMaxBytes = run.cacheMaxBytes;
    }
    if (chaos_enabled) {
        options.chaos.enabled = true;
        options.chaos.seed = chaos_seed;
        options.chaos.activateProbability = chaos_activate;
        options.chaos.fireProbability = chaos_fire;
    }

#if defined(__GLIBC__)
    // Fixed thresholds keep each worker arena's freed pages for the
    // next request instead of handing them back to the kernel and
    // faulting them in again: without them, serve-warm's median
    // latency and throughput were ~3% worse in 8 of 10 alternated
    // runs.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif

    serve::ExperimentServer server(std::move(options));
    server.start();
    activeServer.store(&server);
    std::signal(SIGTERM, onTerminate);
    std::signal(SIGINT, onTerminate);
    server.run();
    // Default handlers back first: a late signal must not race the
    // server's destruction.
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    activeServer.store(nullptr);
    return 0;
}

namespace {

/** Shared submit/status/cancel spec flags. */
struct SubmitFlags
{
    std::string server = serverDefault();
    std::string op = "suite";
    std::string branch_class = "cond";
    std::uint64_t bytes = 8 * 1024;
    std::string budgets;
    std::uint64_t jobs = 1;
    int priority = 0;
    std::uint64_t sleep_ms = 100;
    std::string traces;
    std::string pairs;

    void registerFlags(util::ArgParser &parser)
    {
        parser.addString("--server", "EP",
                         "daemon endpoint (default: VLPSIM_SERVER)",
                         &server);
        parser.addString("--op", "OP",
                         "request op: suite (default), sweep, "
                         "trace-suite, or sleep",
                         &op);
        parser.addString("--class", "C",
                         "branch class: cond (default) or ind",
                         &branch_class);
        parser.addUint("--bytes", "N",
                       "predictor table budget (default 8192)",
                       &bytes, ~std::uint64_t{0});
        parser.addString("--budgets", "LIST",
                         "comma-separated byte budgets (op sweep)",
                         &budgets);
        parser.addUint("--jobs", "N",
                       "worker threads for the request (default 1)",
                       &jobs, 4096);
        parser.addOption("--priority", "P",
                         "scheduling priority, higher first "
                         "(default 0; may be negative)",
                         [this](const std::string &value) {
                             priority = std::atoi(value.c_str());
                         });
        parser.addUint("--ms", "N",
                       "sleep duration for op sleep (default 100)",
                       &sleep_ms, 3'600'000);
        parser.addString("--traces", "DIR",
                         "trace corpus directory (op trace-suite)",
                         &traces);
        parser.addString("--pairs", "FILE",
                         "pair manifest (op trace-suite)", &pairs);
    }

    serve::SubmitSpec toSpec(util::ArgParser &parser) const
    {
        serve::SubmitSpec spec;
        spec.op = op;
        spec.priority = priority;
        const bool indirect = branch_class == "ind";
        if (!indirect && branch_class != "cond")
            parser.fail("--class must be 'cond' or 'ind'");
        if (op == "suite") {
            spec.suite.indirect = indirect;
            spec.suite.bytes = static_cast<std::size_t>(bytes);
            spec.suite.jobs = static_cast<unsigned>(jobs);
        } else if (op == "sweep") {
            spec.sweep.indirect = indirect;
            spec.sweep.jobs = static_cast<unsigned>(jobs);
            std::stringstream list(budgets);
            std::string item;
            while (std::getline(list, item, ',')) {
                if (item.empty())
                    continue;
                spec.sweep.budgets.push_back(
                    std::strtoul(item.c_str(), nullptr, 0));
            }
            if (spec.sweep.budgets.empty())
                parser.fail("op sweep needs --budgets N,N,...");
        } else if (op == "trace-suite") {
            if (traces.empty())
                parser.fail("op trace-suite needs --traces DIR");
            spec.tracesDirectory = traces;
            spec.pairsManifest = pairs;
            spec.traceBytes = static_cast<std::size_t>(bytes);
            spec.traceJobs = static_cast<unsigned>(jobs);
        } else if (op == "sleep") {
            spec.sleepMs = static_cast<unsigned>(sleep_ms);
        } else {
            parser.fail("--op must be suite, sweep, trace-suite, or "
                        "sleep");
        }
        return spec;
    }
};

/** Run one submit + await; returns the terminal frame. */
util::Json
submitOnce(serve::ServeClient &client, const serve::SubmitSpec &spec,
           bool quiet)
{
    const serve::ServeClient::Submission submission =
        client.submit(spec);
    if (!submission.accepted) {
        throw std::runtime_error(
            "rejected (" + std::to_string(submission.code) + "): "
            + submission.reason);
    }
    if (!quiet) {
        std::cerr << "submitted request " << submission.id
                  << " (queue position " << submission.position
                  << ")\n";
    }
    return client.await(
        submission.id, [&](const util::Json &frame) {
            if (quiet)
                return;
            const util::Json *type = frame.find("type");
            if (type == nullptr || !type->isString())
                return;
            if (type->asString() == "progress") {
                std::cerr << "progress: "
                          << frame.at("stage").asString() << " ("
                          << frame.at("completed").numberText() << "/"
                          << frame.at("total").numberText() << ")\n";
            }
        });
}

} // anonymous namespace

int
cmdSubmit(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim submit",
        "submit an experiment to a serve daemon and stream the "
        "result; --repeat N measures warm-request throughput");
    SubmitFlags flags;
    std::string save;
    std::uint64_t repeat = 1;
    std::string bench_out;
    bool quiet = false;
    flags.registerFlags(parser);
    parser.addString("--save", "FILE",
                     "write the result's report document to FILE "
                     "(pretty JSON, byte-identical to "
                     "`vlpsim suite --format json`)",
                     &save);
    parser.addUint("--repeat", "N",
                   "submit the request N times sequentially "
                   "(default 1)",
                   &repeat, 1u << 20);
    parser.addString("--bench-out", "FILE",
                     "write a BENCH_serve.json throughput artifact",
                     &bench_out);
    parser.addSwitch("--quiet", "suppress progress on stderr",
                     &quiet);
    std::uint64_t timeout_ms = 0;
    registerRecvTimeout(parser, &timeout_ms);
    registerLogLevel(parser);
    parser.parse(argc, argv, 2);
    if (repeat == 0)
        repeat = 1;

    serve::ServeClient client(requireEndpoint(parser, flags.server),
                              static_cast<unsigned>(timeout_ms));
    const serve::SubmitSpec spec = flags.toSpec(parser);

    const auto start = std::chrono::steady_clock::now();
    util::Json last;
    std::uint64_t cache_hit_answers = 0;
    for (std::uint64_t i = 0; i < repeat; ++i) {
        last = submitOnce(client, spec, quiet || repeat > 1);
        const std::string &type = last.at("type").asString();
        if (type != "result") {
            std::cerr << "request " << last.at("id").numberText()
                      << " " << type << "\n";
            return 1;
        }
        if (const util::Json *warm = last.find("cacheHit")) {
            if (warm->isBool() && warm->asBool())
                ++cache_hit_answers;
        }
    }
    const double seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();

    const util::Json &report = last.at("report");
    if (!save.empty()) {
        std::ofstream out(save, std::ios::binary);
        if (!out)
            util::fatal("cannot open output file: " + save);
        out << util::toPrettyJson(report) << "\n";
    }
    std::cout << "request " << last.at("id").numberText()
              << " done: cacheHits="
              << last.at("cacheHits").numberText()
              << " cacheMisses=" << last.at("cacheMisses").numberText()
              << " warm="
              << (last.at("cacheHit").asBool() ? "yes" : "no") << "\n";
    if (repeat > 1) {
        const double per_second =
            seconds > 0.0 ? static_cast<double>(repeat) / seconds
                          : 0.0;
        std::fprintf(stderr,
                     "throughput: %llu requests in %.3f s "
                     "(%.1f req/s, %llu warm)\n",
                     static_cast<unsigned long long>(repeat), seconds,
                     per_second,
                     static_cast<unsigned long long>(
                         cache_hit_answers));
    }
    if (!bench_out.empty()) {
        util::JsonWriter writer;
        writer.beginObject();
        writer.member("benchmark", "serve_warm_requests");
        writer.member("requests", std::uint64_t{repeat});
        writer.member("warmAnswers", cache_hit_answers);
        writer.member("seconds", seconds);
        writer.member("requestsPerSecond",
                      seconds > 0.0
                          ? static_cast<double>(repeat) / seconds
                          : 0.0);
        writer.endObject();
        std::ofstream out(bench_out, std::ios::binary);
        if (!out)
            util::fatal("cannot open output file: " + bench_out);
        out << writer.str() << "\n";
    }
    return 0;
}

int
cmdServeStatus(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim status",
        "query a serve daemon: server-wide counters, or one "
        "request's state when an id is given");
    std::string server = serverDefault();
    parser.addString("--server", "EP",
                     "daemon endpoint (default: VLPSIM_SERVER)",
                     &server);
    parser.addPositional("id", "request id (omit for server-wide)",
                         false);
    std::uint64_t timeout_ms = 0;
    registerRecvTimeout(parser, &timeout_ms);
    const auto args = parser.parse(argc, argv, 2);

    serve::ServeClient client(requireEndpoint(parser, server),
                              static_cast<unsigned>(timeout_ms));
    const std::uint64_t id =
        args.empty() ? 0 : std::strtoull(args[0].c_str(), nullptr, 0);
    std::cout << util::toCompactJson(client.status(id)) << "\n";
    return 0;
}

int
cmdServeCancel(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim cancel",
        "cancel a request: a queued one is removed immediately, a "
        "running one unwinds at its next step boundary");
    std::string server = serverDefault();
    parser.addString("--server", "EP",
                     "daemon endpoint (default: VLPSIM_SERVER)",
                     &server);
    parser.addPositional("id", "request id");
    std::uint64_t timeout_ms = 0;
    registerRecvTimeout(parser, &timeout_ms);
    const auto args = parser.parse(argc, argv, 2);

    serve::ServeClient client(requireEndpoint(parser, server),
                              static_cast<unsigned>(timeout_ms));
    const std::uint64_t id =
        std::strtoull(args[0].c_str(), nullptr, 0);
    const util::Json ack = client.cancel(id);
    std::cout << util::toCompactJson(ack) << "\n";
    return ack.at("type").asString() == "error" ? 1 : 0;
}

int
cmdServeShutdown(int argc, char **argv)
{
    util::ArgParser parser(
        "vlpsim shutdown",
        "ask a serve daemon to drain in-flight work and stop");
    std::string server = serverDefault();
    parser.addString("--server", "EP",
                     "daemon endpoint (default: VLPSIM_SERVER)",
                     &server);
    std::uint64_t timeout_ms = 0;
    registerRecvTimeout(parser, &timeout_ms);
    parser.parse(argc, argv, 2);

    serve::ServeClient client(requireEndpoint(parser, server),
                              static_cast<unsigned>(timeout_ms));
    client.shutdownServer();
    std::cout << "shutdown acknowledged\n";
    return 0;
}

} // namespace cli
} // namespace vlp
