/**
 * @file
 * Shared vlpbench pieces: statistics, child jobs, layer metrics, stamp.
 */

#include "common.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/checksum.h"
#include "util/logging.h"
#include "util/version.h"

extern char **environ;

namespace perfbench {

namespace fs = std::filesystem;

void
Outcome::check(bool ok, const std::string &why)
{
    ++attempted;
    if (!ok) {
        ++failed;
        notes.push_back("FAILED: " + why);
    }
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

Tail
tail(std::vector<double> values)
{
    Tail result;
    result.samples = values.size();
    if (values.empty())
        return result;
    const double n = static_cast<double>(values.size());
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (n * (1.0 - p / 100.0) >= 10.0) {
            result.value = percentile(std::move(values), p);
            result.percentile = p;
            return result;
        }
    }
    result.value = *std::max_element(values.begin(), values.end());
    return result;
}

double
ChildResult::number(const std::string &key) const
{
    const auto it = values.find(key);
    if (it == values.end())
        throw std::runtime_error("child result lacks '" + key + "'");
    return std::stod(it->second);
}

const std::string &
ChildResult::text(const std::string &key) const
{
    const auto it = values.find(key);
    if (it == values.end())
        throw std::runtime_error("child result lacks '" + key + "'");
    return it->second;
}

ChildResult
runChild(const std::vector<std::string> &argv,
         const std::string &result_path)
{
    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);

    std::error_code ignored;
    fs::remove(result_path, ignored);
    ChildResult result;
    result.spawned = now();
    pid_t pid = 0;
    if (posix_spawn(&pid, args[0], nullptr, nullptr, args.data(), environ)
        != 0)
        throw std::runtime_error("cannot spawn " + argv[0]);
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR)
            throw std::runtime_error("wait4 failed");
    }
    result.wall = now() - result.spawned;
    result.cpu = static_cast<double>(usage.ru_utime.tv_sec)
        + static_cast<double>(usage.ru_utime.tv_usec) * 1e-6
        + static_cast<double>(usage.ru_stime.tv_sec)
        + static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
    result.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    result.exitedOk = WIFEXITED(status) && WEXITSTATUS(status) == 0;

    std::ifstream in(result_path);
    std::string line;
    while (std::getline(in, line)) {
        const auto space = line.find(' ');
        if (space != std::string::npos)
            result.values[line.substr(0, space)] = line.substr(space + 1);
    }
    return result;
}

void
writeValues(const std::string &path,
            const std::map<std::string, std::string> &values)
{
    std::ofstream out(path);
    for (const auto &[key, value] : values)
        out << key << " " << value << "\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

std::string
formatNumber(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.15g", value);
    return buffer;
}

std::string
digest(const std::string &bytes)
{
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(
                      vlp::util::fnv1a(bytes.data(), bytes.size())));
    return buffer;
}

void
freshDirectory(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricUnits()
{
    static const std::vector<std::pair<std::string, std::string>> units = {
        {"workload.generate_s", "s"},
        {"workload.generate_calls", "count"},
        {"workload.records", "count"},
        {"trace.open_s", "s"},
        {"trace.opens", "count"},
        {"trace.decode_s", "s"},
        {"trace.hash_s", "s"},
        {"trace.bytes", "B"},
        {"trace.quarantined", "count"},
        {"core.step1_s", "s"},
        {"core.step1_calls", "count"},
        {"core.step1_records", "count"},
        {"core.step2_s", "s"},
        {"core.step2_calls", "count"},
        {"sim.compare_s", "s"},
        {"sim.compare_calls", "count"},
        {"sim.compare_predictions", "count"},
        {"sim.core_utilization", "ratio"},
        {"store.fetch_s", "s"},
        {"store.fetches", "count"},
        {"store.hit_ratio", "ratio"},
        {"store.decode_s", "s"},
        {"store.insert_s", "s"},
        {"store.inserts", "count"},
        {"store.insert_bytes", "B"},
        {"sim.report_s", "s"},
        {"sim.report_bytes", "B"},
        {"serve.service_ms", "ms"},
        {"serve.admit_ms", "ms"},
        {"serve.result_bytes", "B"},
        {"serve.rejected", "count"},
        {"trace_coverage", "ratio"},
        {"tracing_overhead", "ratio"},
    };
    return units;
}

std::map<std::string, double>
layerValues(const std::map<std::string, SpanTotals> &totals, double wall,
            unsigned workers)
{
    std::map<std::string, double> values;
    for (const auto &entry : layerMetricUnits())
        values[entry.first] = 0.0;

    double covered = 0.0;
    double fetch_hits = 0.0;
    for (const auto &[name, total] : totals) {
        if (name.rfind("bench.", 0) != 0)
            covered += total.selfSeconds;
        const auto calls = static_cast<double>(total.calls);
        const auto items = static_cast<double>(total.items);
        if (name == "workload.generateTrace") {
            values["workload.generate_s"] += total.seconds;
            values["workload.generate_calls"] += calls;
            values["workload.records"] += items;
        } else if (name == "trace.StreamingTraceReader.open") {
            values["trace.open_s"] += total.seconds;
            values["trace.opens"] += calls;
        } else if (name == "trace.StreamingTraceReader.next") {
            values["trace.decode_s"] += total.seconds;
        } else if (name == "trace.hashTraceFile") {
            values["trace.hash_s"] += total.seconds;
            values["trace.bytes"] += items;
        } else if (name == "core.Profiler.runStep1") {
            values["core.step1_s"] += total.seconds;
            values["core.step1_calls"] += calls;
            values["core.step1_records"] += items;
        } else if (name == "core.Profiler.runStep2") {
            values["core.step2_s"] += total.seconds;
            values["core.step2_calls"] += calls;
        } else if (name == "sim.Simulator.run") {
            values["sim.compare_s"] += total.seconds;
        } else if (name.rfind("sim.compare", 0) == 0) {
            values["sim.compare_calls"] += calls;
            values["sim.compare_predictions"] += items;
        } else if (name == "store.ArtifactStore.fetch") {
            values["store.fetch_s"] += total.seconds;
            values["store.fetches"] += calls;
            fetch_hits += items;
        } else if (name.rfind("store.decode", 0) == 0) {
            values["store.decode_s"] += total.seconds;
        } else if (name == "store.ArtifactStore.insert") {
            values["store.insert_s"] += total.seconds;
            values["store.inserts"] += calls;
            values["store.insert_bytes"] += items;
        } else if (name == "sim.ReportSink.write") {
            values["sim.report_s"] += total.seconds;
            values["sim.report_bytes"] += items;
        }
    }
    if (values["store.fetches"] > 0)
        values["store.hit_ratio"] = fetch_hits / values["store.fetches"];
    if (wall > 0 && workers > 0)
        values["trace_coverage"] = covered / (wall * workers);
    return values;
}

bool
avx512Step1()
{
#if defined(__x86_64__) && defined(__GNUC__)
    return __builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512vl")
        && __builtin_cpu_supports("avx512dq")
        && __builtin_cpu_supports("avx512bw");
#else
    return false;
#endif
}

std::vector<std::pair<std::string, std::string>>
stamp(std::uint64_t seed)
{
    std::string cpu = "unknown";
    {
        std::ifstream in("/proc/cpuinfo");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("model name", 0) == 0) {
                cpu = line.substr(line.find(':') + 2);
                break;
            }
        }
    }
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    return {
        {"cpu", cpu},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"avx512_step1", avx512Step1() ? "yes" : "no"},
        {"build_type", build_type},
        {"build_flag", build_type == "RelWithDebInfo"
                           ? "ok"
                           : "NOT RelWithDebInfo: not comparable"},
        {"compiler", PERFBENCH_COMPILER},
        {"vlpsim_scale", formatNumber(vlp::util::workloadScale())},
        {"seed", std::to_string(seed)},
        {"held_out_seed", std::to_string(heldOutSeed)},
        {"git_describe", vlp::util::buildVersion()},
    };
}

} // namespace perfbench
