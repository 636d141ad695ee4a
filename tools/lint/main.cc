/**
 * @file
 * deepstore_lint CLI.
 *
 *   deepstore_lint --root <repo-root> [--rules D1,D4] [-q] [--json]
 *   deepstore_lint [--rules ...] <file.cc> [more files...]
 *
 * Tree mode (no positional files) walks <root>/src and <root>/tests
 * with all rules including the structural D5/D11 checks; file mode
 * runs the token rules on the given files only (used by the fixture
 * tests). Exit status is 0 iff there are no findings.
 *
 *   --json  print the machine-readable report (findings, suppression
 *           and per-rule counts) instead of the text report; CI
 *           archives it
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace {

std::vector<std::string>
splitRules(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: deepstore_lint [--root DIR] [--rules D1,D2,...] "
        "[-q] [--json] [files...]\n"
        "  tree mode (no files): lint DIR/src and DIR/tests with "
        "all rules (D1-D12)\n"
        "  file mode: lint the given files with the token rules\n"
        "  -q suppresses the per-suppression notes\n"
        "  --json prints the machine-readable report\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    deepstore::lint::Options opts;
    std::vector<std::string> files;
    bool verbose = true;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--rules" && i + 1 < argc) {
            opts.rules = splitRules(argv[++i]);
        } else if (arg == "-q") {
            verbose = false;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            files.push_back(arg);
        }
    }

    deepstore::lint::Report report;
    try {
        if (files.empty()) {
            report = deepstore::lint::lintTree(root, opts);
        } else {
            for (const auto &f : files) {
                std::ifstream in(f, std::ios::binary);
                if (!in) {
                    std::fprintf(stderr,
                                 "deepstore_lint: cannot read %s\n",
                                 f.c_str());
                    return 2;
                }
                std::ostringstream ss;
                ss << in.rdbuf();
                deepstore::lint::lintSource(
                    f, ss.str(), opts,
                    deepstore::lint::FileContext{}, report);
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    if (json)
        std::fputs(deepstore::lint::formatJson(report).c_str(),
                   stdout);
    else
        std::fputs(
            deepstore::lint::formatReport(report, verbose).c_str(),
            stdout);
    return report.clean() ? 0 : 1;
}
