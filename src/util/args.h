/**
 * @file
 * Small command-line flag parser shared by every bench binary and
 * every `vlpsim` subcommand.
 *
 * One ArgParser instance describes one program (or subcommand): its
 * flags, its positional arguments, and one-line help for each. Flags
 * accept both the space-separated form (`--jobs 4`) and the inline
 * form (`--jobs=4`). `--help` (and `-h`) print the full usage text to
 * stdout and exit 0; malformed or unknown arguments print an error to
 * stderr and exit 2, matching the historical bench behavior.
 *
 * Programs that must forward unrecognized flags to another parser
 * (bench_throughput hands `--benchmark_*` flags to google-benchmark)
 * call allowExtra() and read the leftovers back from extra().
 */

#ifndef VLPSIM_UTIL_ARGS_H
#define VLPSIM_UTIL_ARGS_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

namespace vlp {
namespace util {

/** Declarative command-line parser for one program or subcommand. */
class ArgParser
{
  public:
    /**
     * @param program  name shown in the usage line
     *                 ("bench_table2", "vlpsim suite")
     * @param summary  one-line description shown under the usage line
     */
    ArgParser(std::string program, std::string summary);

    /**
     * Register a flag taking a value; @p handler receives the raw
     * value text and may throw std::runtime_error to reject it.
     */
    void addOption(const std::string &flag,
                   const std::string &valueName,
                   const std::string &help,
                   std::function<void(const std::string &)> handler);

    /** Flag with a string value, stored verbatim. */
    void addString(const std::string &flag,
                   const std::string &valueName,
                   const std::string &help, std::string *out);

    /** Flag with an unsigned decimal value, bounded by @p max. */
    void addUint(const std::string &flag, const std::string &valueName,
                 const std::string &help, std::uint64_t *out,
                 std::uint64_t max =
                     std::numeric_limits<std::uint64_t>::max());

    /** Valueless switch; sets @p out to true when present. */
    void addSwitch(const std::string &flag, const std::string &help,
                   bool *out);

    /**
     * Declare a positional argument for the usage text. Required
     * positionals are enforced by count; optional ones are shown in
     * brackets.
     */
    void addPositional(const std::string &name,
                       const std::string &help, bool required = true);

    /**
     * Collect unknown `--flags` into extra() instead of rejecting
     * them (their values stay attached only in `--flag=value` form,
     * so pass-through consumers must accept that form).
     */
    void allowExtra();

    /**
     * Parse @p argv starting at @p begin (1 for a program, 2 for a
     * subcommand). Prints usage and exits 0 on --help; prints an
     * error and exits 2 on malformed input.
     * @return the positional arguments in order
     */
    std::vector<std::string> parse(int argc, char **argv,
                                   int begin = 1);

    /** Unknown flags kept by allowExtra(), in argv order. */
    const std::vector<std::string> &extra() const { return extra_; }

    /** Write the full usage/help text. */
    void printUsage(std::ostream &out) const;

    /** Print @p message as an error plus a usage hint, then exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

  private:
    struct Flag
    {
        std::string name;      // "--jobs"
        std::string valueName; // "N"; empty for switches
        std::string help;
        std::function<void(const std::string &)> handler;
        bool takesValue = false;
    };

    struct Positional
    {
        std::string name;
        std::string help;
        bool required = false;
    };

    const Flag *findFlag(const std::string &name) const;

    std::string program_;
    std::string summary_;
    std::vector<Flag> flags_;
    std::vector<Positional> positionals_;
    bool passUnknown_ = false;
    std::vector<std::string> extra_;
};

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_ARGS_H
