/**
 * @file
 * deepstore-lint: determinism & sim-invariant static analysis.
 *
 * The simulator's correctness story rests on replayability: the
 * tick-identical regression pins and the analytic-vs-live parity
 * tests only mean something if every run of the simulator is a pure
 * function of its inputs and seeds. This checker turns the unwritten
 * rules that guarantee that into named, machine-enforced,
 * suppressible rules (see DESIGN.md §9):
 *
 *   D1  no wall-clock APIs (std::chrono::system_clock/steady_clock,
 *       time(), clock(), gettimeofday, ...) outside bench/
 *   D2  no unseeded/non-portable randomness (rand(),
 *       std::random_device, std::mt19937, ...) — all RNG flows
 *       through common/rng (exempt, it *is* the RNG)
 *   D3  no direct sim-time accumulation (`simSeconds_ +=`-style
 *       bumps of *Seconds* members) outside core/time_ledger and
 *       src/sim — time advances only through TimeLedger/EventQueue
 *   D4  no range-for iteration over unordered_map/unordered_set
 *       variables (iteration order is libstdc++-specific and
 *       pointer-dependent) unless annotated
 *       `// lint:ordered-ok(<reason>)`
 *   D5  structural: every tests/.../test_*.cc is registered in
 *       tests/CMakeLists.txt; every bench/bench_*.cc emits a
 *       JsonReport
 *   D6  no closed-form TimeLedger duration advances in the live
 *       scan path: `<...ledger...>.advance(` / `->advance(` calls
 *       under src/core/ (time_ledger itself exempt) are findings —
 *       scan/compute/weight/probe/top-K timing must come from
 *       scheduled events on the shared resources (EventQueue,
 *       ComputeArbiter, BandwidthLink), not analytic quotients
 *       pushed into the ledger. Host-interface fast paths that are
 *       genuinely not part of the scan datapath carry a reasoned
 *       `// lint:allow(D6: ...)` allowlist annotation.
 *   D7  no direct member access on Ssd/Ftl objects (`ssd_->...`,
 *       `ssd().hostRead(...)`, `ftl().translate(...)`) under
 *       src/core/ outside the node layer (core/ssd_node exempt —
 *       it *is* the layer). Everything above, the array's shard
 *       map, maintenance unit and coordinator included, goes
 *       through SsdNode passthroughs, so per-node geometry, fault
 *       domains, and
 *       whole-drive death stay encapsulated behind the array.
 *       Deliberate escapes carry `// lint:allow(D7: ...)`.
 *
 * v2 grows the checker from a per-file token scanner into a
 * two-phase analyzer: phase 1 builds a lightweight cross-TU index
 * over the tree (include graph, float/pointer declarations, mutable
 * global/static state, Stats sites, schedule() sites); phase 2 runs
 * five more rules on top:
 *
 *   D8  no mutable global / namespace-scope / class-static /
 *       function-local-static variable under src/: hidden shared
 *       state couples runs that must replay independently.
 *       Deliberate process-wide state carries
 *       `// lint:allow(D8: <reason>)`.
 *   D9  address-order nondeterminism: ordered/unordered associative
 *       containers keyed by raw pointers (std::map<T*,...>,
 *       std::set<T*>, smart-pointer keys), sort comparators that
 *       compare pointer parameters with `<`, and raw `p < q`
 *       comparisons between known pointer variables. Pointer values
 *       differ run to run (ASLR, allocator), so any order derived
 *       from them is irreproducible. Annotate
 *       `// lint:ptr-ordered-ok(<reason>)` (or lint:allow(D9: ...))
 *       for deliberate, order-insensitive uses.
 *   D10 floating-point accumulation (`+=`/`-=` on a float/double
 *       variable, cross-checked against the phase-1 type index)
 *       inside a range-for over an unordered container: FP addition
 *       is not associative, so a free iteration order silently
 *       breaks bit-identical replays even where D4 was judged
 *       harmless. A D4 `lint:ordered-ok` does NOT cover it; a
 *       deliberate escape needs `lint:allow(D10: ...)`.
 *   D11 structural stats completeness: every stat name used with
 *       `StatGroup::get("...")` under src/ is registered in
 *       src/common/stats_schema.h (DS_STAT), every manually printed
 *       `os << "name = ..."` stat row is registered as DS_STAT_ROW
 *       (the first-class form of the guarded-row idiom — the entry
 *       documents when the row appears), and every registered name
 *       is still referenced somewhere in src/ (no stale schema
 *       entries).
 *   D12 dangling event captures: schedule()/scheduleAfter()/
 *       scheduleChain()/schedulePeriodic() lambdas under src/ that
 *       capture by reference (`[&]`, `[&x]`). The callback outlives
 *       the enclosing scope unless the queue is provably drained
 *       first, so by-ref captures of locals are use-after-scope
 *       bombs. Deliberate drain-before-return sites carry
 *       `lint:allow(D12: ...)`.
 *
 * Suppressions (same line or the line directly above the finding):
 *
 *   // lint:allow(D1: <reason>)      suppress any rule, with reason
 *   // lint:ordered-ok(<reason>)     D4-specific alias
 *   // lint:ptr-ordered-ok(<reason>) D9-specific alias
 *
 * A suppression without a written reason is itself a finding.
 *
 * Token/line-level by design: no libclang dependency, so the checker
 * builds from the same CMake tree with zero extra packages and runs
 * as an ordinary ctest test.
 */

#ifndef DEEPSTORE_TOOLS_LINT_H
#define DEEPSTORE_TOOLS_LINT_H

#include <string>
#include <vector>

namespace deepstore::lint {

/** One rule violation. */
struct Finding
{
    std::string file;    ///< path as given to the linter
    int line = 0;        ///< 1-based line number
    std::string rule;    ///< "D1".."D12"
    std::string message; ///< human-readable explanation
};

/** One honoured suppression (finding that was annotated away). */
struct Suppression
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string reason;
};

/** Result of a lint run. */
struct Report
{
    std::vector<Finding> findings;
    std::vector<Suppression> suppressions;

    bool clean() const { return findings.empty(); }
};

/** Linter options. */
struct Options
{
    /** Rules to run (e.g. {"D1","D4"}). Empty means all rules. */
    std::vector<std::string> rules;

    bool
    enabled(const std::string &rule) const
    {
        if (rules.empty())
            return true;
        for (const auto &r : rules)
            if (r == rule)
                return true;
        return false;
    }
};

/**
 * Source text with comments and string/char literals blanked out
 * (replaced by spaces, newlines preserved) plus the per-line comment
 * text (for `lint:` annotations). Exposed for the linter's own tests.
 *
 * When @p keep_literals is true the contents of string literals stay
 * in `code` (comments are still blanked): the phase-1 stats passes
 * need the literal stat names.
 */
struct StrippedSource
{
    std::string code;                   ///< literal-free code text
    std::vector<std::string> comments;  ///< comments[i] = line i+1
};

/** Strip comments and string/char literals (handles raw strings). */
StrippedSource stripSource(const std::string &content,
                           bool keep_literals = false);

/**
 * Cross-TU context for the per-file token rules: name sets collected
 * over the whole tree in phase 1 and fed to every file's phase-2 run
 * (headers declare the members; the .cc files use them).
 */
struct FileContext
{
    /** Variables known to be unordered containers (D4/D10). */
    std::vector<std::string> unorderedNames;
    /** Variables known to be float/double (D10). */
    std::vector<std::string> floatNames;
    /** Variables known to be raw pointers (D9). */
    std::vector<std::string> pointerNames;
};

/**
 * Run the token-level rules (D1–D4, D6–D10, D12) on one in-memory
 * file.
 *
 * @param path     path used for exemption matching and reporting
 * @param content  full file text
 * @param ctx      cross-TU name sets (names declared inside
 *                 @p content are found automatically)
 */
void lintSource(const std::string &path, const std::string &content,
                const Options &opts, const FileContext &ctx,
                Report &report);

/** Back-compat convenience: context with unordered names only. */
void lintSource(const std::string &path, const std::string &content,
                const Options &opts,
                const std::vector<std::string> &unordered_names,
                Report &report);

/**
 * Collect names of variables/members declared with an
 * unordered_map/unordered_set type in @p content (for D4/D10).
 */
std::vector<std::string>
collectUnorderedNames(const std::string &content);

/** Collect names declared float/double in @p content (for D10). */
std::vector<std::string>
collectFloatNames(const std::string &content);

/** Collect names declared as raw pointers in @p content (for D9). */
std::vector<std::string>
collectPointerNames(const std::string &content);

/**
 * One mutable global/static declaration found by the phase-1 state
 * scan (before annotation matching). Exposed for the linter's tests.
 */
struct MutableStatic
{
    int line = 0;
    std::string symbol;
    /** "global" | "class-static" | "local-static" */
    std::string kind;
};

/** Phase-1 scan for mutable global/static state (D8). */
std::vector<MutableStatic>
collectMutableStatics(const std::string &content);

/**
 * Tree mode: phase 1 walks <root>/src and <root>/tests (*.cc, *.h,
 * sorted) building the cross-TU index, then phase 2 runs every
 * per-file rule with that context plus the structural passes (D5,
 * D11 stats completeness).
 */
Report lintTree(const std::string &root, const Options &opts);

/** Render findings + suppression notes as "file:line: [Dk] msg". */
std::string formatReport(const Report &report, bool verbose);

/**
 * Serialize the whole report (findings, suppressions, per-rule
 * counts) as JSON for the `--json` CLI flag; CI archives it as the
 * static-analysis artifact.
 */
std::string formatJson(const Report &report);

} // namespace deepstore::lint

#endif // DEEPSTORE_TOOLS_LINT_H
