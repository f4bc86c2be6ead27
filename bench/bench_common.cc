/**
 * @file
 * Shared bench driver implementation.
 */

#include "bench_common.h"

#include <exception>
#include <iostream>

#include "store/artifact_store.h"
#include "util/logging.h"

namespace bench {

using namespace vlp;

void
RunSummary::print(std::uint64_t predictions, std::uint64_t simulated,
                  unsigned jobs) const
{
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start_);
    const double seconds = elapsed.count();
    const double per_second =
        seconds > 0.0 ? static_cast<double>(simulated) / seconds : 0.0;
    std::cerr << "run summary: " << util::formatCount(predictions)
              << " branch predictions (" << util::formatCount(simulated)
              << " simulated) in " << util::formatDouble(seconds, 2)
              << " s ("
              << util::formatScaled(
                     static_cast<std::uint64_t>(per_second))
              << " simulated branches/s; jobs=" << jobs << ")\n";
}

Driver::Driver(std::string program, std::string title,
               std::string configuration)
    : title_(std::move(title)),
      configuration_(std::move(configuration)),
      parser_(std::move(program), title_ + " — " + configuration_)
{
    options_.registerFlags(parser_);
    output_.registerFlags(parser_);
}

int
Driver::run(int argc, char **argv,
            const std::function<void(sim::ParallelRunner &,
                                     sim::Report &)> &body)
{
    parser_.parse(argc, argv);

    sim::Report report;
    report.title = title_;
    report.configuration = configuration_;
    report.banner = true;
    report.scale = util::workloadScale();

    RunSummary summary;
    sim::ParallelRunner runner(static_cast<unsigned>(options_.jobs));
    const auto store = options_.attachStore(runner);

    try {
        body(runner, report);
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }

    report.setMeta("jobs", std::uint64_t{runner.jobs()});
    report.setMeta("scale", util::formatDouble(report.scale, 3));
    report.setMeta("predictions", runner.predictions());
    if (store) {
        const store::StoreCounters counters = store->counters();
        report.setMeta("cacheHits", counters.hits);
        report.setMeta("cacheMisses", counters.misses);
        report.setMeta("cacheInserts", counters.inserts);
    }

    try {
        output_.write(report);
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }

    summary.print(runner);
    sim::reportCacheCounters(store.get());
    return 0;
}

} // namespace bench
