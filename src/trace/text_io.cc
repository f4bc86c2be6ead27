/**
 * @file
 * Text trace format implementation.
 */

#include "trace/text_io.h"

#include <fstream>
#include <sstream>

#include "util/logging.h"

namespace vlp {
namespace trace {

namespace {

bool
tryParseKind(const std::string &name, BranchKind &kind)
{
    for (unsigned k = 0; k < numBranchKinds; ++k) {
        if (name == branchKindName(static_cast<BranchKind>(k))) {
            kind = static_cast<BranchKind>(k);
            return true;
        }
    }
    return false;
}

bool
tryParseHex(const std::string &text, std::uint64_t &value)
{
    char *end = nullptr;
    value = std::strtoull(text.c_str(), &end, 16);
    return end != text.c_str() && *end == '\0';
}

bool
tryParseTaken(const std::string &text, bool &taken)
{
    if (text == "T" || text == "1") {
        taken = true;
        return true;
    }
    if (text == "N" || text == "0") {
        taken = false;
        return true;
    }
    return false;
}

/**
 * Parse one non-blank line in either the native format
 * (`kind pc next T|N`) or the reduced form (`pc next taken`).
 * @return true on success; otherwise @p error names the problem
 */
bool
tryParseLine(const std::string &line, BranchRecord &record,
             std::string &error)
{
    std::istringstream fields(line);
    std::string first, second, third, fourth;
    fields >> first >> second >> third;
    if (third.empty()) {
        error = "too few fields (want 'kind pc next T|N' or "
                "'pc next T|N|1|0')";
        return false;
    }

    if (tryParseKind(first, record.kind)) {
        fields >> fourth;
        if (fourth.empty()) {
            error = "too few fields for '" + first + "' record";
            return false;
        }
        if (!tryParseHex(second, record.pc)) {
            error = "bad pc '" + second + "'";
            return false;
        }
        if (!tryParseHex(third, record.nextPc)) {
            error = "bad nextPc '" + third + "'";
            return false;
        }
        if (!tryParseTaken(fourth, record.taken)) {
            error = "bad direction '" + fourth + "' (want T or N)";
            return false;
        }
    } else {
        // Reduced ChampSim-style form: pc target taken.
        record.kind = BranchKind::Conditional;
        if (!tryParseHex(first, record.pc)) {
            error = "unknown branch kind or bad pc '" + first + "'";
            return false;
        }
        if (!tryParseHex(second, record.nextPc)) {
            error = "bad nextPc '" + second + "'";
            return false;
        }
        if (!tryParseTaken(third, record.taken)) {
            error = "bad direction '" + third
                    + "' (want T, N, 1, or 0)";
            return false;
        }
    }
    if (!record.isConditional() && !record.taken) {
        error = "non-conditional branch marked not-taken";
        return false;
    }
    return true;
}

/**
 * Parse every record line of @p in; @p bad(message) sees each
 * malformed line's "line N: why" message, and the line is skipped.
 */
template <typename Bad>
VectorTraceSource
parseLines(std::istream &in, Bad &&bad)
{
    VectorTraceSource source;
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        const auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#')
            continue;

        BranchRecord record;
        std::string error;
        if (tryParseLine(line, record, error))
            source.append(record);
        else
            bad("line " + std::to_string(line_number) + ": " + error);
    }
    return source;
}

} // anonymous namespace

BranchKind
parseBranchKind(const std::string &name)
{
    BranchKind kind;
    if (!tryParseKind(name, kind))
        util::fatal("unknown branch kind: " + name);
    return kind;
}

VectorTraceSource
readTextTrace(std::istream &in)
{
    return parseLines(in, [](const std::string &message) {
        util::fatal("malformed text trace: " + message);
    });
}

VectorTraceSource
readTextTraceLenient(std::istream &in, ConvertReport &report)
{
    VectorTraceSource source =
        parseLines(in, [&](const std::string &message) {
            ++report.skipped;
            if (report.diagnostics.size() < ConvertReport::maxDiagnostics)
                report.diagnostics.push_back(message);
        });
    report.imported = source.size();
    return source;
}

VectorTraceSource
loadTextTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        util::fatal("cannot open text trace: " + path);
    return readTextTrace(in);
}

void
writeTextTrace(const VectorTraceSource &source, std::ostream &out)
{
    out << "# vlpsim text trace: kind pc nextpc T|N\n";
    for (const auto &record : source.records()) {
        out << branchKindName(record.kind) << ' ' << std::hex
            << record.pc << ' ' << record.nextPc << std::dec << ' '
            << (record.taken ? 'T' : 'N') << '\n';
    }
}

void
saveTextTrace(const VectorTraceSource &source, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        util::fatal("cannot create text trace: " + path);
    writeTextTrace(source, out);
    if (!out)
        util::fatal("short write to text trace: " + path);
}

} // namespace trace
} // namespace vlp
