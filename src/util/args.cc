/**
 * @file
 * Command-line parser implementation.
 */

#include "util/args.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <ostream>
#include <stdexcept>

namespace vlp {
namespace util {

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

void
ArgParser::addOption(const std::string &flag,
                     const std::string &valueName,
                     const std::string &help,
                     std::function<void(const std::string &)> handler)
{
    Flag entry;
    entry.name = flag;
    entry.valueName = valueName;
    entry.help = help;
    entry.handler = std::move(handler);
    entry.takesValue = true;
    flags_.push_back(std::move(entry));
}

void
ArgParser::addString(const std::string &flag,
                     const std::string &valueName,
                     const std::string &help, std::string *out)
{
    addOption(flag, valueName, help,
              [out](const std::string &value) { *out = value; });
}

void
ArgParser::addUint(const std::string &flag,
                   const std::string &valueName,
                   const std::string &help, std::uint64_t *out,
                   std::uint64_t max)
{
    addOption(flag, valueName, help,
              [out, max](const std::string &value) {
                  char *end = nullptr;
                  errno = 0;
                  const unsigned long long parsed =
                      std::strtoull(value.c_str(), &end, 10);
                  if (end == value.c_str() || *end != '\0'
                      || errno != 0 || parsed > max
                      || value.front() == '-') {
                      throw std::runtime_error("malformed value: "
                                               + value);
                  }
                  *out = parsed;
              });
}

void
ArgParser::addSwitch(const std::string &flag, const std::string &help,
                     bool *out)
{
    Flag entry;
    entry.name = flag;
    entry.help = help;
    entry.handler = [out](const std::string &) { *out = true; };
    entry.takesValue = false;
    flags_.push_back(std::move(entry));
}

void
ArgParser::addPositional(const std::string &name,
                         const std::string &help, bool required)
{
    positionals_.push_back(Positional{name, help, required});
}

void
ArgParser::allowExtra()
{
    passUnknown_ = true;
}

const ArgParser::Flag *
ArgParser::findFlag(const std::string &name) const
{
    for (const Flag &flag : flags_) {
        if (flag.name == name)
            return &flag;
    }
    return nullptr;
}

std::vector<std::string>
ArgParser::parse(int argc, char **argv, int begin)
{
    std::vector<std::string> positionals;
    for (int i = begin; i < argc; ++i) {
        const std::string argument = argv[i];
        if (argument == "--help" || argument == "-h") {
            printUsage(std::cout);
            std::exit(0);
        }
        if (argument.rfind("--", 0) != 0 || argument == "--") {
            positionals.push_back(argument);
            continue;
        }
        std::string name = argument;
        std::string inline_value;
        bool has_inline = false;
        const std::size_t equals = argument.find('=');
        if (equals != std::string::npos) {
            name = argument.substr(0, equals);
            inline_value = argument.substr(equals + 1);
            has_inline = true;
        }
        const Flag *flag = findFlag(name);
        if (flag == nullptr) {
            if (passUnknown_) {
                extra_.push_back(argument);
                continue;
            }
            fail("unknown flag: " + name);
        }
        std::string value;
        if (flag->takesValue) {
            if (has_inline) {
                value = inline_value;
            } else {
                if (i + 1 >= argc)
                    fail(flag->name + " requires a value");
                value = argv[++i];
            }
        } else if (has_inline) {
            fail(flag->name + " takes no value");
        }
        try {
            flag->handler(value);
        } catch (const std::exception &error) {
            fail(flag->name + ": " + error.what());
        }
    }

    std::size_t required = 0;
    for (const Positional &positional : positionals_) {
        if (positional.required)
            ++required;
    }
    if (positionals.size() < required)
        fail("missing required argument: "
             + positionals_[positionals.size()].name);
    if (positionals.size() > positionals_.size()) {
        fail("unexpected argument: " + positionals[positionals_.size()]);
    }
    return positionals;
}

void
ArgParser::printUsage(std::ostream &out) const
{
    out << "usage: " << program_;
    if (!flags_.empty())
        out << " [options]";
    for (const Positional &positional : positionals_) {
        if (positional.required)
            out << " <" << positional.name << ">";
        else
            out << " [" << positional.name << "]";
    }
    out << "\n";
    if (!summary_.empty())
        out << "\n" << summary_ << "\n";

    std::size_t width = 0;
    auto label = [](const Flag &flag) {
        return flag.takesValue ? flag.name + " " + flag.valueName
                               : flag.name;
    };
    for (const Flag &flag : flags_)
        width = std::max(width, label(flag).size());
    for (const Positional &positional : positionals_)
        width = std::max(width, positional.name.size());
    width = std::max(width, std::string("--help").size());

    if (!positionals_.empty()) {
        out << "\narguments:\n";
        for (const Positional &positional : positionals_) {
            out << "  " << positional.name
                << std::string(width - positional.name.size() + 2, ' ')
                << positional.help << "\n";
        }
    }
    out << "\noptions:\n";
    for (const Flag &flag : flags_) {
        const std::string text = label(flag);
        out << "  " << text
            << std::string(width - text.size() + 2, ' ') << flag.help
            << "\n";
    }
    out << "  --help" << std::string(width - 6 + 2, ' ')
        << "show this help and exit\n";
}

void
ArgParser::fail(const std::string &message) const
{
    std::cerr << "error: " << message << "\n"
              << "run '" << program_ << " --help' for usage\n";
    std::exit(2);
}

} // namespace util
} // namespace vlp
