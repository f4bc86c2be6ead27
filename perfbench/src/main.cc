/**
 * @file
 * vlpbench: the end-to-end benchmark's measuring program.
 *
 *   vlpbench run --workload W --seed N --seconds S --trace 0|1
 *                        --work DIR --vlpsim PATH
 *       measure one workload; the last stdout line is the JSON result
 *   vlpbench job paper-cold|corpus-cold --dir DIR
 *                        [--corpus DIR] [--traced] [--setup-only]
 *       one cold job in a fresh process (spawned by `run`)
 *
 * perfbench/run.py builds this program and calls `run`.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"

namespace {

using namespace perfbench;

int
usage()
{
    std::cerr << "usage: vlpbench run --workload W --seed N "
                 "--seconds S --trace 0|1 --work DIR --vlpsim PATH\n"
                 "       vlpbench job paper-cold|corpus-cold "
                 "--dir DIR [--corpus DIR] [--traced] [--setup-only]\n";
    return 2;
}

void
printResult(const Outcome &outcome, std::uint64_t seed)
{
    std::string stampLine = "{";
    bool first = true;
    for (const auto &[key, value] : stamp(seed)) {
        stampLine += std::string(first ? "" : ", ") + "\"" + key
            + "\": \"" + value + "\"";
        first = false;
    }
    std::cout << "stamp: " << stampLine << "}\n";
    for (const std::string &note : outcome.notes)
        std::cout << "note: " << note << "\n";
    for (const Metric &metric : outcome.metrics) {
        std::cout << "metric: " << metric.name << " = "
                  << formatNumber(metric.value) << " " << metric.unit
                  << "\n";
    }
    std::cout << "error_rate: " << outcome.failed << "/"
              << outcome.attempted << " = "
              << formatNumber(outcome.attempted == 0
                                  ? 0.0
                                  : static_cast<double>(outcome.failed)
                                        / static_cast<double>(
                                            outcome.attempted))
              << "\n";

    std::string json = "{\"correct\": ";
    json += outcome.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    first = true;
    for (const Metric &metric : outcome.metrics) {
        json += std::string(first ? "" : ", ") + "\"" + metric.name
            + "\": {\"value\": " + formatNumber(metric.value)
            + ", \"unit\": \"" + metric.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::cout << json << std::endl;
}

int
runMain(int argc, char **argv)
{
    RunConfig config;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            config.workload = value;
        else if (flag == "--seed")
            config.seed = std::stoull(value);
        else if (flag == "--seconds")
            config.seconds = std::stod(value);
        else if (flag == "--trace")
            config.traced = value == "1";
        else if (flag == "--work")
            config.workDir = value;
        else if (flag == "--vlpsim")
            config.vlpsim = value;
        else
            return usage();
    }
    if (config.workDir.empty() || config.vlpsim.empty())
        return usage();
    config.self = "/proc/self/exe";
    {
        char buffer[4096];
        const ssize_t length =
            readlink("/proc/self/exe", buffer, sizeof buffer - 1);
        if (length > 0)
            config.self.assign(buffer, static_cast<std::size_t>(length));
    }

    Outcome outcome;
    if (config.workload == "paper-cold")
        outcome = runPaperCold(config);
    else if (config.workload == "corpus-cold")
        outcome = runCorpusCold(config);
    else if (config.workload == "serve-warm")
        outcome = runServeWarm(config);
    else {
        std::cerr << "unknown workload '" << config.workload << "'\n";
        return 2;
    }
    printResult(outcome, config.seed);
    return 0;
}

int
jobMain(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string workload = argv[2];
    std::string dir, corpus;
    bool traced = false, setup_only = false;
    for (int i = 3; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--dir" && i + 1 < argc)
            dir = argv[++i];
        else if (flag == "--corpus" && i + 1 < argc)
            corpus = argv[++i];
        else if (flag == "--traced")
            traced = true;
        else if (flag == "--setup-only")
            setup_only = true;
        else
            return usage();
    }
    if (dir.empty())
        return usage();
    if (workload == "paper-cold")
        return paperColdJob(dir, traced, setup_only);
    if (workload == "corpus-cold")
        return corpusColdJob(dir, corpus, traced, setup_only);
    return usage();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    try {
        if (command == "run")
            return runMain(argc, argv);
        if (command == "job")
            return jobMain(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << "vlpbench: " << error.what() << "\n";
        return 1;
    }
    return usage();
}
