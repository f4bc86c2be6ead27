/**
 * @file
 * Human-readable text trace format — the import/export path for
 * external tools. One record per line:
 *
 *     <kind> <pc-hex> <nextpc-hex> <T|N>
 *
 * where <kind> is one of cond, jump, call, ijump, icall, ret (the
 * names branchKindName() prints), or the reduced form
 * `<pc-hex> <nextpc-hex> <T|N|1|0>` of a conditional branch. Lines
 * starting with '#' and blank lines are ignored. Example:
 *
 *     # extracted from a ChampSim trace
 *     cond  40001c 400080 T
 *     ijump 400080 400200 T
 *     ret   400200 400020 T
 */

#ifndef VLPSIM_TRACE_TEXT_IO_H
#define VLPSIM_TRACE_TEXT_IO_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace_source.h"

namespace vlp {
namespace trace {

/** Write @p source as text to @p out. */
void writeTextTrace(const VectorTraceSource &source, std::ostream &out);

/**
 * Write @p source as a text file.
 * @throws std::runtime_error on I/O errors
 */
void saveTextTrace(const VectorTraceSource &source,
                   const std::string &path);

/**
 * Outcome of a text-to-.vbt import (`vlpsim import`). Malformed lines
 * are skipped and reported with their line numbers instead of
 * aborting the import — external branch logs routinely carry a
 * handful of mangled lines.
 */
struct ImportReport
{
    /** Diagnostics kept; further bad lines only bump skipped. */
    static constexpr std::size_t maxDiagnostics = 20;

    /** Records successfully parsed. */
    std::uint64_t imported = 0;
    /** Malformed lines skipped. */
    std::uint64_t skipped = 0;
    /** "line N: why" messages for the first maxDiagnostics bad lines. */
    std::vector<std::string> diagnostics;
};

/**
 * Parse a text branch log — the one text grammar. Accepts the native
 * format (`kind pc next T|N`) and a ChampSim-style reduced form
 * (`pc next T|N|1|0`, kind defaulting to cond). Malformed lines are
 * recorded in @p report as "line N: why" and skipped; never throws
 * on content.
 */
VectorTraceSource readTextTraceLenient(std::istream &in,
                                       ImportReport &report);

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_TEXT_IO_H
