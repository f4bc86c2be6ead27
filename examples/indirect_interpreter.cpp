/**
 * @file
 * Indirect branch prediction on an interpreter workload — the paper's
 * strongest result. Builds a custom bytecode-interpreter program with
 * the workload DSL (a dispatch loop whose next opcode follows an
 * order-2 Markov process, plus handlers with call-site-correlated
 * conditionals) and races every indirect predictor in the repository
 * on it: BTB, the Chang-Hao-Patt pattern and path target caches, a
 * cascaded predictor, and fixed/variable length path predictors.
 *
 * Usage: indirect_interpreter [table-bytes]
 */

#include <cstdlib>
#include <iostream>

#include "core/path_predictor.h"
#include "core/profiler.h"
#include "predictors/btb.h"
#include "predictors/budget.h"
#include "predictors/cascaded.h"
#include "predictors/target_cache.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/engine.h"
#include "workload/program.h"

namespace {

using namespace vlp;
using namespace vlp::workload;

/** Build a small bytecode interpreter with @p handlers opcodes. */
Program
buildInterpreter(unsigned handlers)
{
    ProgramBuilder builder;
    util::Rng rng(0xC0FFEE);

    // A helper the handlers share; its branch depends on which
    // handler called it (path-correlated at shallow depth).
    const FuncId helper = builder.beginFunction();
    builder.addBlock();
    {
        const BlockId cond = builder.addBlock();
        builder.addBlock(); // then-side
        const BlockId join = builder.addBlock();
        builder.setCond(cond, join,
                        std::make_unique<PathCorrelatedBehavior>(
                            3, false, 0.01, rng.next()));
    }
    const BlockId helper_ret = builder.addBlock();
    builder.setReturn(helper_ret);
    builder.endFunction();

    // The interpreter: dispatch over handlers, each handler does a
    // little work and jumps to the back edge.
    const FuncId main_func = builder.beginFunction();
    const BlockId dispatch = builder.addBlock();
    std::vector<BlockId> handler_entries;
    std::vector<BlockId> handler_jumps;
    for (unsigned i = 0; i < handlers; ++i) {
        const BlockId entry = builder.addBlock();
        handler_entries.push_back(entry);
        if (i % 3 == 0) {
            const BlockId call = builder.addBlock();
            builder.setCall(call, helper);
        } else if (i % 3 == 1) {
            const BlockId cond = builder.addBlock();
            builder.addBlock();
            const BlockId join = builder.addBlock();
            builder.setCond(cond, join,
                            std::make_unique<BiasedBehavior>(0.9, 64));
        }
        handler_jumps.push_back(builder.addBlock());
    }
    const BlockId backedge = builder.addBlock();
    for (BlockId jump : handler_jumps)
        builder.setJump(jump, backedge);
    builder.setJump(backedge, dispatch);
    builder.setIndirectJump(dispatch, std::move(handler_entries),
                            std::make_unique<MarkovBehavior>(
                                2, 0.08, rng.next()));
    builder.endFunction();

    return builder.finalize(main_func);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::size_t bytes =
        argc > 1 ? std::strtoul(argv[1], nullptr, 0) : 2048;
    const unsigned index_bits = pred::indirectIndexBits(bytes);

    std::cout << "bytecode interpreter, 48 opcodes, order-2 opcode "
                 "Markov chain; "
              << bytes << "-byte indirect predictors (k=" << index_bits
              << ")\n";

    Program program = buildInterpreter(48);

    // Profile on one input...
    InputSet profile_input{101, 1.0, 1.0};
    RunLimits limits;
    limits.conditionalBudget = 400'000;
    auto profile_trace =
        ExecutionEngine(program, profile_input).runToTrace(limits);

    core::ProfileOptions options;
    options.indexBits = index_bits;
    core::Profiler profiler(options, true);
    const core::HashAssignment assignment =
        profiler.profile(profile_trace);
    std::cout << "profiled dispatch length: "
              << assignment.lookup(
                     program.blockAddr(
                         program.entryBlock(program.mainFunction())))
              << " (default " << assignment.defaultLength() << ")\n\n";

    // ...evaluate on another.
    InputSet test_input{202, 1.1, 1.0};
    auto test_trace =
        ExecutionEngine(program, test_input).runToTrace(limits);

    pred::BtbPredictor btb(index_bits);
    pred::PatternTargetCache pattern(index_bits);
    pred::PathTargetCache path(index_bits);
    pred::CascadedPredictor cascaded(index_bits - 1, index_bits - 1);
    core::PathIndirectPredictor flp(index_bits,
                                    assignment.defaultLength());
    core::PathIndirectPredictor vlp(index_bits, assignment);

    sim::Simulator simulator;
    simulator.addIndirect(&btb);
    simulator.addIndirect(&pattern);
    simulator.addIndirect(&path);
    simulator.addIndirect(&cascaded);
    simulator.addIndirect(&flp);
    simulator.addIndirect(&vlp);
    simulator.run(test_trace);

    util::TablePrinter table(
        {"predictor", "size (bytes)", "mispredict (%)"});
    for (const auto &result : simulator.indirectResults()) {
        table.addRow({result.name, std::to_string(result.sizeBytes),
                      util::formatDouble(result.rate(), 2)});
    }
    table.print(std::cout);
    return 0;
}
