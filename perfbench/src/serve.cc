/**
 * @file
 * serve-warm: `vlpsim serve` with its default 2 workers over a store
 * filled during preparation. One load-generator process holds 4
 * connections in a closed loop; each submits seeded draws from a
 * fixed mix of `suite` and `sweep` requests, and the store answers
 * all of them. The seed draws the request order.
 *
 * The traced run adds client spans around ServeClient::submit/await,
 * times each request in-process through sim::runSuiteCompare/runSweep
 * (serve.service_ms), and replays each request's store reads through
 * the traced replica to split fetch, decode and report time.
 */

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "common.h"
#include "replica.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "sim/report.h"
#include "sim/service.h"
#include "util/json.h"
#include "util/rng.h"

extern char **environ;

namespace perfbench {

using namespace vlp;

namespace {

/** The fixed request mix; draws are uniform over it. */
std::vector<serve::SubmitSpec>
requestMix()
{
    std::vector<serve::SubmitSpec> mix;
    const auto suite = [&](bool indirect, std::size_t bytes) {
        serve::SubmitSpec spec;
        spec.op = "suite";
        spec.suite.indirect = indirect;
        spec.suite.bytes = bytes;
        mix.push_back(spec);
    };
    const auto sweep = [&](bool indirect, std::vector<std::size_t> budgets) {
        serve::SubmitSpec spec;
        spec.op = "sweep";
        spec.sweep.indirect = indirect;
        spec.sweep.budgets = std::move(budgets);
        mix.push_back(spec);
    };
    suite(false, 4096);
    suite(false, 16384);
    suite(false, 65536);
    suite(true, 2048);
    suite(true, 8192);
    sweep(false, {1024, 4096, 16384});
    sweep(true, {2048, 8192});
    return mix;
}

/** The daemon's rendering of a report: stamped, JSON, re-parsed. */
std::string
resultDocument(sim::Report report)
{
    sim::stampBuildInfo(report);
    std::ostringstream json;
    {
        Scope scope("sim.ReportSink.write");
        sim::JsonReportSink sink;
        sink.write(report, json);
        scope.setItems(json.str().size());
    }
    return util::toPrettyJson(util::Json::parse(json.str()));
}

/** The request run in-process: its own store, no daemon. */
sim::ServiceResult
runInProcess(const serve::SubmitSpec &spec, unsigned jobs,
             const std::string &store_dir)
{
    auto store = openStore(store_dir);
    if (spec.op == "suite") {
        Scope scope("sim.runSuiteCompare");
        sim::SuiteCompareSpec suite = spec.suite;
        suite.jobs = jobs;
        return sim::runSuiteCompare(suite, store);
    }
    Scope scope("sim.runSweep");
    sim::SweepSpec sweep = spec.sweep;
    sweep.jobs = jobs;
    return sim::runSweep(sweep, store);
}

/** service.cc's addCompareSection over the traced replica. */
void
addTracedSection(sim::Report &report, TracedRunner &runner, bool indirect,
                 std::size_t bytes, const std::string &name)
{
    const unsigned global_length =
        argminLength(runner.average(bytes, indirect));
    const auto rows = runner.compareSuite(bytes, global_length, indirect);

    sim::Section &section = report.addSection(name);
    std::ostringstream caption;
    caption << (indirect ? "indirect" : "conditional") << " predictors, "
            << bytes << " byte tables, test inputs (global fixed path length "
            << global_length << "):\n";
    section.caption = caption.str();
    section.columns = {{"benchmark"}};
    for (const auto &entry : rows.front().entries)
        section.columns.push_back({entry.predictor + " (%)"});
    for (const auto &row : rows) {
        std::vector<sim::Cell> cells = {sim::Cell::text(row.benchmark)};
        for (const auto &entry : row.entries)
            cells.push_back(sim::Cell::percent(entry.rate));
        section.addRow(row.benchmark, std::move(cells));
    }
}

/** runSuiteCompare/runSweep (jobs 1) over the traced replica. */
std::string
tracedRequest(const serve::SubmitSpec &spec, const std::string &store_dir)
{
    TracedRunner runner(1, openStore(store_dir));
    sim::Report report;
    if (spec.op == "suite") {
        const bool indirect = spec.suite.indirect;
        const std::size_t bytes = spec.suite.bytes;
        report.title = "predictor suite";
        report.setMeta("class", indirect ? "ind" : "cond");
        report.setMeta("bytes", std::uint64_t{bytes});
        report.setMeta("globalLength",
                       std::uint64_t{argminLength(
                           runner.average(bytes, indirect))});
        report.setMeta("jobs", std::uint64_t{1});
        addTracedSection(report, runner, indirect, bytes,
                         indirect ? "indirect" : "conditional");
    } else {
        const bool indirect = spec.sweep.indirect;
        report.title = "predictor sweep";
        report.setMeta("class", indirect ? "ind" : "cond");
        std::string budgets;
        for (const std::size_t bytes : spec.sweep.budgets)
            budgets += (budgets.empty() ? "" : ",") + std::to_string(bytes);
        report.setMeta("budgets", budgets);
        report.setMeta("jobs", std::uint64_t{1});
        for (const std::size_t bytes : spec.sweep.budgets)
            addTracedSection(report, runner, indirect, bytes,
                             std::to_string(bytes));
    }
    report.setMeta("predictions", runner.predictions);
    return resultDocument(std::move(report));
}

/** User + system CPU seconds of @p pid so far, from /proc. */
double
processCpu(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    std::istringstream fields(text.substr(text.rfind(')') + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i >= 14)
            ticks += std::stod(field);
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/** Peak resident set (VmHWM) of @p pid in MB. */
double
processPeakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

/** One `vlpsim serve` daemon process; stopped on destruction. */
class Daemon
{
  public:
    Daemon(const RunConfig &config, const std::string &socket,
           const std::string &store_dir)
        : endpoint_(util::net::Endpoint::parse(socket))
    {
        std::filesystem::remove(socket);
        const std::vector<std::string> argv = {
            config.vlpsim, "serve",       "--listen",    socket,
            "--cache-dir", store_dir,     "--log-level", "warn"};
        std::vector<char *> args;
        for (const auto &arg : argv)
            args.push_back(const_cast<char *>(arg.c_str()));
        args.push_back(nullptr);
        // posix_spawn, not fork: fork's cost grows with this process's
        // heap, which the store preparation has just filled.
        started_ = now();
        if (posix_spawn(&pid_, args[0], nullptr, nullptr, args.data(),
                        environ)
            != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start the serve daemon");
        }
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Connect, retrying until the hello frame arrives; returns the
     *  seconds from spawn to hello. */
    std::unique_ptr<serve::ServeClient>
    connect(double *setup = nullptr)
    {
        for (;;) {
            try {
                auto client =
                    std::make_unique<serve::ServeClient>(endpoint_, 60'000);
                if (setup != nullptr)
                    *setup = now() - started_;
                return client;
            } catch (const std::exception &error) {
                int status = 0;
                if (waitpid(pid_, &status, WNOHANG) == pid_) {
                    pid_ = -1;
                    throw std::runtime_error("serve daemon exited early");
                }
                if (now() - started_ > 30.0)
                    throw;
                usleep(200);
            }
        }
    }

    pid_t pid() const { return pid_; }

    /** Ask the daemon to drain and wait for it to exit. */
    void
    stop()
    {
        connect()->shutdownServer();
        const double deadline = now() + 30.0;
        while (now() < deadline) {
            if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            usleep(1000);
        }
        throw std::runtime_error("serve daemon did not shut down");
    }

  private:
    util::net::Endpoint endpoint_;
    double started_ = 0.0;
    pid_t pid_ = -1;
};

/** One completed (or failed) request of the load. */
struct Sample
{
    double completed = 0.0;
    double latency = 0.0;
    double admit = 0.0;
    std::size_t resultBytes = 0;
    bool ok = false;
    std::string why;
};

/** Daemon start-ups timed before the load. */
constexpr int setupRepeats = 15;
/** Closed-loop warm-up before the measured window (s). */
constexpr double warmup = 1.0;

} // anonymous namespace

Outcome
runServeWarm(const RunConfig &config)
{
    Outcome outcome;
    freshDirectory(config.workDir);
    const std::string store_dir = config.workDir + "/store";
    const std::string socket = config.workDir + "/serve.sock";
    const std::vector<serve::SubmitSpec> mix = requestMix();

    // Preparation: fill the store (4 jobs; artifacts are identical for
    // any jobs value), then take each request's reference document
    // in-process at the daemon's default of 1 job per request.
    for (const auto &spec : mix)
        runInProcess(spec, benchJobs, store_dir);
    std::vector<std::string> references;
    for (const auto &spec : mix)
        references.push_back(
            resultDocument(runInProcess(spec, 1, store_dir).report));
    // Write the filled store back now, so its writeback does not land
    // in the timed daemon starts.
    sync();

    std::vector<double> setups;
    for (int i = 0; i < setupRepeats; ++i) {
        Daemon daemon(config, socket, store_dir);
        double setup = 0.0;
        daemon.connect(&setup);
        setups.push_back(setup);
        daemon.stop();
    }

    Daemon daemon(config, socket, store_dir);
    {
        double setup = 0.0;
        daemon.connect(&setup);
        setups.push_back(setup);
    }

    // Closed loop: warm-up, then the measured window; the traced run
    // traces the second half of the window only.
    const double load_start = now();
    const double window_start = load_start + warmup;
    const double window_end = window_start + config.seconds;
    const double traced_from = config.traced
        ? window_start + config.seconds / 2.0
        : window_end;
    std::unique_ptr<Tracer> tracer;
    std::mutex samples_mutex;
    std::vector<Sample> samples;
    std::vector<std::thread> clients;
    std::vector<std::exception_ptr> failures(benchJobs);
    for (unsigned connection = 0; connection < benchJobs; ++connection) {
        clients.emplace_back([&, connection] {
            try {
                setWorker(connection + 1);
                auto client = daemon.connect();
                util::Rng rng(config.seed * 0x9e3779b97f4a7c15ULL
                              + connection);
                while (now() < window_end) {
                    const std::size_t pick = rng.nextBelow(mix.size());
                    Sample sample;
                    const double start = now();
                    serve::ServeClient::Submission submission;
                    {
                        Scope scope("serve.ServeClient.submit");
                        submission = client->submit(mix[pick]);
                    }
                    sample.admit = now() - start;
                    if (!submission.accepted) {
                        sample.why = "rejected: " + submission.reason;
                    } else {
                        util::Json frame;
                        {
                            Scope scope("serve.ServeClient.await");
                            frame = client->await(submission.id);
                        }
                        sample.completed = now();
                        sample.latency = sample.completed - start;
                        if (frame.at("type").asString() != "result") {
                            sample.why = "request ended as "
                                + frame.at("type").asString();
                        } else if (!frame.at("cacheHit").asBool()) {
                            sample.why = "request was not warm";
                        } else {
                            const std::string document =
                                util::toPrettyJson(frame.at("report"));
                            sample.resultBytes = document.size();
                            sample.ok = document == references[pick];
                            if (!sample.ok)
                                sample.why = "report differs from "
                                             "runSuiteCompare/runSweep";
                        }
                    }
                    std::lock_guard<std::mutex> lock(samples_mutex);
                    samples.push_back(std::move(sample));
                }
            } catch (...) {
                failures[connection] = std::current_exception();
            }
        });
    }

    while (now() < window_start)
        usleep(1000);
    const double cpu_start = processCpu(daemon.pid());
    if (config.traced) {
        while (now() < traced_from)
            usleep(1000);
        tracer = std::make_unique<Tracer>();
    }
    for (auto &client : clients)
        client.join();
    const double cpu_end = processCpu(daemon.pid());
    const double peak_rss = processPeakRssMb(daemon.pid());
    std::map<std::string, SpanTotals> load_totals;
    if (tracer) {
        load_totals = tracer->totals();
        tracer->dump(config.workDir + "/load-spans.jsonl");
        tracer.reset();
    }
    daemon.stop();
    for (const auto &failure : failures) {
        if (failure)
            std::rethrow_exception(failure);
    }

    // Requests that completed inside the measured window.
    std::vector<double> latencies, untraced, traced_latencies, admits,
        result_bytes;
    std::uint64_t rejected = 0;
    for (const Sample &sample : samples) {
        outcome.check(sample.ok, sample.why);
        if (sample.why.rfind("rejected", 0) == 0)
            ++rejected;
        if (!sample.ok || sample.completed < window_start
            || sample.completed > window_end)
            continue;
        latencies.push_back(sample.latency);
        (sample.completed < traced_from ? untraced : traced_latencies)
            .push_back(sample.latency);
        admits.push_back(sample.admit);
        result_bytes.push_back(static_cast<double>(sample.resultBytes));
    }
    const double window = window_end - window_start;
    const double rate = static_cast<double>(latencies.size()) / window;

    if (!config.traced) {
        const Tail latency = tail(latencies);
        const double batches = static_cast<double>(latencies.size()) / 64.0;
        outcome.add("setup_s", median(setups), "s");
        outcome.add("wall_s", rate > 0 ? 64.0 / rate : 0.0, "s");
        outcome.add("cpu_s", batches > 0 ? (cpu_end - cpu_start) / batches
                                         : 0.0,
                    "s");
        outcome.add("peak_rss_mb", peak_rss, "MB");
        outcome.add("requests_per_s", rate, "req/s");
        outcome.add("latency_p50_ms", median(latencies) * 1e3, "ms");
        outcome.add("latency_tail_ms", latency.value * 1e3, "ms");
        outcome.notes.push_back(
            "latency_tail_ms is p" + formatNumber(latency.percentile)
            + " of " + std::to_string(latency.samples) + " requests");
        outcome.notes.push_back("wall_s and cpu_s are per 64 requests");
        return outcome;
    }

    // Traced extras: in-process service time per request of the mix,
    // and the store-read replica, which must render each request's
    // reference document byte for byte.
    std::vector<double> service;
    Tracer replica_tracer;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        std::vector<double> times;
        for (int repeat = 0; repeat < 3; ++repeat) {
            const double start = now();
            runInProcess(mix[i], 1, store_dir);
            times.push_back(now() - start);
        }
        service.push_back(median(times));
        outcome.check(tracedRequest(mix[i], store_dir) == references[i],
                      "traced replica's report differs for mix entry "
                          + std::to_string(i));
    }
    auto layers = layerValues(replica_tracer.totals(), 0.0, 0);
    const auto client = layerValues(load_totals, config.seconds / 2.0,
                                    benchJobs);
    replica_tracer.dump(config.workDir + "/replica-spans.jsonl");
    double service_mean = 0.0;
    for (const double seconds : service)
        service_mean += seconds / static_cast<double>(service.size());
    layers["serve.service_ms"] = service_mean * 1e3;
    layers["serve.admit_ms"] = median(admits) * 1e3;
    layers["serve.result_bytes"] = median(result_bytes);
    layers["serve.rejected"] = static_cast<double>(rejected);
    layers["trace_coverage"] = client.at("trace_coverage");
    layers["tracing_overhead"] =
        median(traced_latencies) / median(untraced) - 1.0;
    // Per replayed request of the mix, not per served request.
    for (const char *idle : {"workload.generate_calls", "core.step1_calls"})
        outcome.check(layers[idle] == 0.0,
                      std::string("layer predicted idle: ") + idle + " = "
                          + formatNumber(layers[idle]));
    for (const auto &[name, unit] : layerMetricUnits())
        outcome.add(name, layers[name], unit);
    outcome.notes.push_back(
        "store and report layers come from one traced replay of each of the "
        + std::to_string(mix.size()) + " requests in the mix");
    return outcome;
}

} // namespace perfbench
