/**
 * @file
 * Shared experiment service implementation.
 */

#include "sim/service.h"

#include <sstream>
#include <stdexcept>

#include "sim/parallel.h"
#include "util/version.h"
#include "workload/benchmarks.h"

namespace vlp {
namespace sim {

namespace {

void
tick(const ProgressFn &progress, const std::string &stage,
     std::size_t completed, std::size_t total)
{
    if (progress)
        progress({stage, completed, total});
}

/**
 * One budget's comparison section, appended to @p report. Extracted
 * so the suite and sweep paths build sections with identical layout.
 */
void
addCompareSection(Report &report, ParallelRunner &runner,
                  bool indirect, std::size_t bytes,
                  const std::string &name)
{
    const unsigned global_length = runner.globalLength(bytes, indirect);
    const auto rows = runner.compareSuite(workload::benchmarkSuite(), bytes,
                                          global_length, indirect);

    Section &section = report.addSection(name);
    std::ostringstream caption;
    caption << (indirect ? "indirect" : "conditional")
            << " predictors, " << bytes
            << " byte tables, test inputs (global fixed path length "
            << global_length << "):\n";
    section.caption = caption.str();
    section.columns = {{"benchmark"}};
    for (const auto &entry : rows.front().entries)
        section.columns.push_back({entry.predictor + " (%)"});
    for (const auto &row : rows) {
        std::vector<Cell> cells = {Cell::text(row.benchmark)};
        for (const auto &entry : row.entries)
            cells.push_back(Cell::percent(entry.rate));
        section.addRow(row.benchmark, std::move(cells));
    }
}

} // anonymous namespace

ServiceResult
runSuiteCompare(const SuiteCompareSpec &spec,
                std::shared_ptr<store::ArtifactStore> store,
                std::shared_ptr<const util::CancelToken> cancel,
                const ProgressFn &progress)
{
    if (spec.bytes == 0)
        throw std::runtime_error(
            "table budget must be a positive byte count");

    ParallelRunner runner(spec.jobs);
    if (store)
        runner.setStore(std::move(store));
    if (cancel)
        runner.setCancelToken(std::move(cancel));

    tick(progress, "global length", 0, 2);
    const unsigned global_length =
        runner.globalLength(spec.bytes, spec.indirect);

    tick(progress, "compare", 1, 2);

    ServiceResult result;
    result.report.title = "predictor suite";
    result.report.setMeta("class", spec.indirect ? "ind" : "cond");
    result.report.setMeta("bytes", std::uint64_t{spec.bytes});
    result.report.setMeta("globalLength",
                          std::uint64_t{global_length});
    result.report.setMeta("jobs", std::uint64_t{runner.jobs()});
    addCompareSection(result.report, runner, spec.indirect, spec.bytes,
                      spec.indirect ? "indirect" : "conditional");
    result.report.setMeta("predictions", runner.predictions());
    result.predictions = runner.predictions();
    result.jobs = runner.jobs();

    tick(progress, "done", 2, 2);
    return result;
}

ServiceResult
runSweep(const SweepSpec &spec,
         std::shared_ptr<store::ArtifactStore> store,
         std::shared_ptr<const util::CancelToken> cancel,
         const ProgressFn &progress)
{
    if (spec.budgets.empty())
        throw std::runtime_error("sweep needs at least one budget");
    for (const std::size_t bytes : spec.budgets) {
        if (bytes == 0) {
            throw std::runtime_error(
                "table budget must be a positive byte count");
        }
    }

    ParallelRunner runner(spec.jobs);
    if (store)
        runner.setStore(std::move(store));
    if (cancel)
        runner.setCancelToken(std::move(cancel));

    ServiceResult result;
    result.report.title = "predictor sweep";
    result.report.setMeta("class", spec.indirect ? "ind" : "cond");
    {
        std::ostringstream budgets;
        for (std::size_t i = 0; i < spec.budgets.size(); ++i) {
            if (i > 0)
                budgets << ",";
            budgets << spec.budgets[i];
        }
        result.report.setMeta("budgets", budgets.str());
    }
    result.report.setMeta("jobs", std::uint64_t{runner.jobs()});
    for (std::size_t i = 0; i < spec.budgets.size(); ++i) {
        const std::size_t bytes = spec.budgets[i];
        tick(progress, std::to_string(bytes) + " bytes", i,
             spec.budgets.size());
        addCompareSection(result.report, runner, spec.indirect, bytes,
                          std::to_string(bytes));
    }
    result.report.setMeta("predictions", runner.predictions());
    result.predictions = runner.predictions();
    result.jobs = runner.jobs();

    tick(progress, "done", spec.budgets.size(), spec.budgets.size());
    return result;
}

void
stampBuildInfo(Report &report)
{
    report.setMeta("vlpsimVersion", util::buildVersion());
}

} // namespace sim
} // namespace vlp
