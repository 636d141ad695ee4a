/**
 * @file
 * Implementation of deepstore-lint (see lint.h for the rule table).
 *
 * Deliberately token/line-level: a literal-stripping pass plus a tiny
 * tokenizer is enough to enforce the determinism invariants without a
 * libclang dependency, so the checker builds from the same CMake tree
 * and runs everywhere the tests run.
 *
 * v2 structure: lintTree() runs phase 1 (cross-TU index: unordered /
 * float / pointer member names, per-file mutable-static scans) before
 * the per-file phase 2 token rules, then the structural passes (D5
 * registration, D11 stats schema).
 */

#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>

namespace deepstore::lint {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------------
// Literal stripping
// ------------------------------------------------------------------

bool
startsWith(const std::string &s, std::size_t i, const char *pat)
{
    for (std::size_t j = 0; pat[j]; ++j)
        if (i + j >= s.size() || s[i + j] != pat[j])
            return false;
    return true;
}

} // namespace

StrippedSource
stripSource(const std::string &content, bool keep_literals)
{
    StrippedSource out;
    out.code.reserve(content.size());
    out.comments.emplace_back(); // line 1

    enum class State {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };
    State state = State::Code;
    std::string raw_delim; // for raw strings: )delim"

    for (std::size_t i = 0; i < content.size(); ++i) {
        char c = content[i];
        if (c == '\n') {
            out.code += '\n';
            out.comments.emplace_back();
            if (state == State::LineComment)
                state = State::Code;
            // Unterminated normal literals do not survive a newline.
            if (state == State::String || state == State::Char)
                state = State::Code;
            continue;
        }
        switch (state) {
          case State::Code:
            if (startsWith(content, i, "//")) {
                state = State::LineComment;
                out.code += ' ';
            } else if (startsWith(content, i, "/*")) {
                state = State::BlockComment;
                out.code += ' ';
            } else if (c == '"' &&
                       (i == 0 ||
                        !(std::isalnum(
                              static_cast<unsigned char>(
                                  content[i - 1])) ||
                          content[i - 1] == '_') ||
                        content[i - 1] == 'R')) {
                if (i > 0 && content[i - 1] == 'R') {
                    // Raw string R"delim( ... )delim"
                    std::size_t p = i + 1;
                    std::string delim;
                    while (p < content.size() && content[p] != '(')
                        delim += content[p++];
                    raw_delim = ")" + delim + "\"";
                    state = State::RawString;
                } else {
                    state = State::String;
                }
                out.code += keep_literals ? c : ' ';
            } else if (c == '\'' && i > 0 &&
                       (std::isalnum(static_cast<unsigned char>(
                            content[i - 1])) ||
                        content[i - 1] == '_')) {
                // Digit separator (1'000'000): keep as code.
                out.code += c;
            } else if (c == '\'') {
                state = State::Char;
                out.code += ' ';
            } else {
                out.code += c;
            }
            break;
          case State::LineComment:
            out.comments.back() += c;
            out.code += ' ';
            break;
          case State::BlockComment:
            if (startsWith(content, i, "*/")) {
                state = State::Code;
                out.code += ' ';
                ++i;
                out.code += ' ';
            } else {
                out.comments.back() += c;
                out.code += ' ';
            }
            break;
          case State::String:
            if (c == '\\' && i + 1 < content.size() &&
                content[i + 1] != '\n') {
                if (keep_literals) {
                    out.code += c;
                    out.code += content[i + 1];
                } else {
                    out.code += "  ";
                }
                ++i;
            } else if (c == '"') {
                state = State::Code;
                out.code += keep_literals ? c : ' ';
            } else {
                out.code += keep_literals ? c : ' ';
            }
            break;
          case State::Char:
            if (c == '\\' && i + 1 < content.size() &&
                content[i + 1] != '\n') {
                out.code += "  ";
                ++i;
            } else if (c == '\'') {
                state = State::Code;
                out.code += ' ';
            } else {
                out.code += ' ';
            }
            break;
          case State::RawString:
            if (startsWith(content, i, raw_delim.c_str())) {
                if (keep_literals) {
                    out.code += raw_delim;
                } else {
                    for (std::size_t j = 0; j < raw_delim.size();
                         ++j)
                        out.code += ' ';
                }
                i += raw_delim.size() - 1;
                state = State::Code;
            } else {
                out.code += keep_literals ? c : ' ';
            }
            break;
        }
    }
    return out;
}

namespace {

// ------------------------------------------------------------------
// Tokenizer
// ------------------------------------------------------------------

struct Token
{
    std::string text;
    int line = 0;
    bool ident = false;
};

std::vector<Token>
tokenize(const std::string &code)
{
    std::vector<Token> toks;
    int line = 1;
    for (std::size_t i = 0; i < code.size(); ++i) {
        char c = code[i];
        if (c == '\n') {
            ++line;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)))
            continue;
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::size_t j = i;
            while (j < code.size() &&
                   (std::isalnum(
                        static_cast<unsigned char>(code[j])) ||
                    code[j] == '_'))
                ++j;
            toks.push_back({code.substr(i, j - i), line, true});
            i = j - 1;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i;
            while (j < code.size() &&
                   (std::isalnum(
                        static_cast<unsigned char>(code[j])) ||
                    code[j] == '.' || code[j] == '\''))
                ++j;
            toks.push_back({code.substr(i, j - i), line, false});
            i = j - 1;
            continue;
        }
        // Multi-char operators the rules care about.
        static const char *kOps[] = {"::", "->", "+=", "-="};
        bool matched = false;
        for (const char *op : kOps) {
            if (startsWith(code, i, op)) {
                toks.push_back({op, line, false});
                ++i;
                matched = true;
                break;
            }
        }
        if (!matched)
            toks.push_back({std::string(1, c), line, false});
    }
    return toks;
}

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

bool
pathContains(const std::string &path, const char *needle)
{
    return path.find(needle) != std::string::npos;
}

/** True for paths under src/ (D8/D12 only police simulator code). */
bool
inSrc(const std::string &path)
{
    return path.rfind("src/", 0) == 0 || pathContains(path, "/src/");
}

// ------------------------------------------------------------------
// Suppression annotations
// ------------------------------------------------------------------

struct Annotation
{
    std::string rule;
    std::string reason; // may be empty (which is itself a finding)
};

/**
 * Parse `lint:allow(Dk: reason)` plus the rule-specific aliases
 * `lint:ordered-ok(reason)` (D4) and `lint:ptr-ordered-ok(reason)`
 * (D9).
 */
std::vector<Annotation>
parseAnnotations(const std::string &comment)
{
    std::vector<Annotation> out;
    static const std::regex kAllow(
        R"(lint:allow\(\s*(D[0-9]+)\s*(?::\s*([^)]*))?\))");
    static const std::regex kOrdered(
        R"(lint:(ptr-)?ordered-ok\(\s*([^)]*)\))");
    for (auto it = std::sregex_iterator(comment.begin(),
                                        comment.end(), kAllow);
         it != std::sregex_iterator(); ++it) {
        Annotation a;
        a.rule = (*it)[1];
        a.reason = (*it)[2];
        out.push_back(std::move(a));
    }
    for (auto it = std::sregex_iterator(comment.begin(),
                                        comment.end(), kOrdered);
         it != std::sregex_iterator(); ++it) {
        out.push_back(
            {(*it)[1].matched ? "D9" : "D4", (*it)[2]});
    }
    return out;
}

/** Strip leading/trailing whitespace. */
std::string
trim(std::string s)
{
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.back())))
        s.pop_back();
    std::size_t b = 0;
    while (b < s.size() &&
           std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    return s.substr(b);
}

/**
 * Emit a finding unless a same-line / line-above annotation
 * suppresses it. Shared by the per-file token rules and the
 * tree-level structural passes (D11), which is why it is a free
 * function over a StrippedSource rather than a FileLinter method.
 */
void
emitFinding(Report &report, const StrippedSource &src,
            const std::string &path, const std::string &rule,
            int line, std::string message)
{
    for (int l : {line, line - 1}) {
        if (l < 1 ||
            static_cast<std::size_t>(l) > src.comments.size())
            continue;
        for (const Annotation &a :
             parseAnnotations(src.comments[l - 1])) {
            if (a.rule != rule)
                continue;
            std::string reason = trim(a.reason);
            if (reason.empty()) {
                report.findings.push_back(
                    {path, line, rule,
                     message +
                         " [suppression missing a reason: "
                         "write lint:allow(" +
                         rule + ": <why>)]"});
                return;
            }
            report.suppressions.push_back({path, line, rule, reason});
            return;
        }
    }
    report.findings.push_back({path, line, rule, std::move(message)});
}

class FileLinter
{
  public:
    FileLinter(const std::string &path, const StrippedSource &src,
               const Options &opts,
               const std::set<std::string> &unordered_names,
               const std::set<std::string> &float_names,
               const std::set<std::string> &pointer_names,
               const std::vector<MutableStatic> &mutable_statics,
               Report &report)
        : path_(path), src_(src), opts_(opts),
          unordered_(unordered_names), floats_(float_names),
          pointers_(pointer_names), statics_(mutable_statics),
          report_(report), toks_(tokenize(src.code))
    {
    }

    void
    run()
    {
        if (opts_.enabled("D1") && !pathContains(path_, "bench/"))
            ruleD1();
        if (opts_.enabled("D2") &&
            !pathContains(path_, "common/rng."))
            ruleD2();
        if (opts_.enabled("D3") &&
            !pathContains(path_, "core/time_ledger.") &&
            !pathContains(path_, "src/sim/"))
            ruleD3();
        if (opts_.enabled("D4"))
            ruleD4();
        if (opts_.enabled("D6") &&
            pathContains(path_, "src/core/") &&
            !pathContains(path_, "core/time_ledger."))
            ruleD6();
        if (opts_.enabled("D7") &&
            pathContains(path_, "src/core/") &&
            !pathContains(path_, "core/ssd_node."))
            ruleD7();
        if (opts_.enabled("D8") && inSrc(path_))
            ruleD8();
        if (opts_.enabled("D9"))
            ruleD9();
        if (opts_.enabled("D10"))
            ruleD10();
        if (opts_.enabled("D12") && inSrc(path_))
            ruleD12();
    }

  private:
    /** Emit a finding unless an annotation suppresses it. */
    void
    emit(const std::string &rule, int line, std::string message)
    {
        emitFinding(report_, src_, path_, rule, line,
                    std::move(message));
    }

    const Token *
    prev(std::size_t i) const
    {
        return i > 0 ? &toks_[i - 1] : nullptr;
    }

    const Token *
    next(std::size_t i) const
    {
        return i + 1 < toks_.size() ? &toks_[i + 1] : nullptr;
    }

    /** True when toks_[i] is used as a free (or std::) call. */
    bool
    freeCall(std::size_t i) const
    {
        const Token *n = next(i);
        if (!n || n->text != "(")
            return false;
        const Token *p = prev(i);
        if (!p)
            return true;
        if (p->text == "." || p->text == "->")
            return false; // member call on some object
        if (p->text == "::") {
            const Token *pp = i >= 2 ? &toks_[i - 2] : nullptr;
            return pp && pp->text == "std";
        }
        if (p->ident || p->text == ">" || p->text == "*" ||
            p->text == "&") {
            // `Type name(...)` / `Type *name(...)`: a declaration of
            // a variable or function named like the API, not a call
            // of it — unless the preceding identifier is a keyword
            // that can directly precede a call expression.
            static const std::set<std::string> kExprKeywords = {
                "return", "co_return", "co_yield", "case",
                "throw",  "new",       "else"};
            return p->ident && kExprKeywords.count(p->text) != 0;
        }
        return true;
    }

    void
    ruleD1()
    {
        static const std::set<std::string> kClockIdents = {
            "system_clock", "steady_clock", "high_resolution_clock"};
        static const std::set<std::string> kClockCalls = {
            "time",      "clock",     "gettimeofday",
            "localtime", "gmtime",    "mktime",
            "ftime",     "timespec_get", "clock_gettime"};
        for (std::size_t i = 0; i < toks_.size(); ++i) {
            const Token &t = toks_[i];
            if (!t.ident)
                continue;
            if (kClockIdents.count(t.text)) {
                emit("D1", t.line,
                     "wall-clock API `" + t.text +
                         "` breaks replayability; simulated time "
                         "flows through TimeLedger/EventQueue "
                         "(bench/ is exempt)");
            } else if (kClockCalls.count(t.text) && freeCall(i)) {
                emit("D1", t.line,
                     "wall-clock call `" + t.text +
                         "()` breaks replayability; simulated time "
                         "flows through TimeLedger/EventQueue "
                         "(bench/ is exempt)");
            }
        }
    }

    void
    ruleD2()
    {
        static const std::set<std::string> kRngIdents = {
            "random_device",        "mt19937",
            "mt19937_64",           "minstd_rand",
            "minstd_rand0",         "default_random_engine",
            "knuth_b",              "ranlux24",
            "ranlux48"};
        static const std::set<std::string> kRngCalls = {
            "rand", "srand", "rand_r", "drand48", "random"};
        for (std::size_t i = 0; i < toks_.size(); ++i) {
            const Token &t = toks_[i];
            if (!t.ident)
                continue;
            if (kRngIdents.count(t.text)) {
                emit("D2", t.line,
                     "`" + t.text +
                         "` is unseeded or non-portable; all "
                         "randomness flows through common/rng "
                         "(deepstore::Rng)");
            } else if (kRngCalls.count(t.text) && freeCall(i)) {
                emit("D2", t.line,
                     "`" + t.text +
                         "()` is unseeded/global randomness; all "
                         "randomness flows through common/rng "
                         "(deepstore::Rng)");
            }
        }
    }

    static bool
    simTimeName(const std::string &name)
    {
        std::string l = lower(name);
        if (l.find("seconds") != std::string::npos)
            return true;
        static const std::set<std::string> kTimeNames = {
            "now_", "tick_", "ticks_", "time_", "simtime_"};
        return kTimeNames.count(l) != 0;
    }

    void
    ruleD3()
    {
        for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
            const Token &t = toks_[i];
            if (!t.ident || !simTimeName(t.text))
                continue;
            const Token &op = toks_[i + 1];
            if (op.text == "+=" || op.text == "-=") {
                emit("D3", t.line,
                     "direct sim-time accumulation `" + t.text + " " +
                         op.text +
                         " ...`; time advances only through "
                         "core/time_ledger (TimeLedger) or the "
                         "EventQueue");
            }
        }
    }

    /**
     * Find the range-for loops D4/D10 care about. Calls @p fn with
     * (for-token index, colon index, close-paren index) for every
     * `for (decl : range)` whose range expression names a known
     * unordered container.
     */
    template <typename Fn>
    void
    forEachUnorderedRangeFor(Fn fn)
    {
        for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
            if (!toks_[i].ident || toks_[i].text != "for" ||
                toks_[i + 1].text != "(")
                continue;
            int depth = 0;
            std::size_t colon = 0, close = 0;
            for (std::size_t j = i + 1; j < toks_.size(); ++j) {
                const std::string &x = toks_[j].text;
                if (x == "(")
                    ++depth;
                else if (x == ")") {
                    if (--depth == 0) {
                        close = j;
                        break;
                    }
                } else if (x == ":" && depth == 1 && colon == 0) {
                    colon = j;
                } else if (x == ";" && depth == 1) {
                    break; // classic for loop
                }
            }
            if (!colon || !close)
                continue;
            for (std::size_t j = colon + 1; j < close; ++j) {
                if (toks_[j].ident &&
                    unordered_.count(toks_[j].text)) {
                    fn(i, j, close);
                    break;
                }
            }
        }
    }

    void
    ruleD4()
    {
        forEachUnorderedRangeFor([this](std::size_t i,
                                        std::size_t name,
                                        std::size_t) {
            emit("D4", toks_[i].line,
                 "range-for over unordered container `" +
                     toks_[name].text +
                     "`: iteration order is "
                     "implementation-defined and breaks "
                     "replay determinism; iterate a sorted "
                     "copy or annotate "
                     "lint:ordered-ok(<reason>)");
        });
    }

    void
    ruleD6()
    {
        for (std::size_t i = 0; i + 3 < toks_.size(); ++i) {
            const Token &recv = toks_[i];
            if (!recv.ident ||
                lower(recv.text).find("ledger") ==
                    std::string::npos)
                continue;
            const Token &acc = toks_[i + 1];
            if (acc.text != "." && acc.text != "->")
                continue;
            if (toks_[i + 2].text != "advance" ||
                toks_[i + 3].text != "(")
                continue;
            emit("D6", recv.line,
                 "closed-form TimeLedger advance `" + recv.text +
                     acc.text +
                     "advance(...)` in the live scan path: "
                     "scan/compute/weight/probe/top-K durations "
                     "come from scheduled events on the shared "
                     "resources (EventQueue, ComputeArbiter, "
                     "BandwidthLink); host-side fast paths outside "
                     "the scan datapath annotate "
                     "lint:allow(D6: <why>)");
        }
    }

    void
    ruleD7()
    {
        for (std::size_t i = 0; i < toks_.size(); ++i) {
            const Token &recv = toks_[i];
            if (!recv.ident)
                continue;
            std::string l = lower(recv.text);
            if (l.find("ssd") == std::string::npos &&
                l.find("ftl") == std::string::npos)
                continue;
            const Token *n = next(i);
            if (!n)
                continue;
            // Scope qualification (`ssd::Completion`,
            // `Level::SsdLevel` never puts the enumerator first) is
            // naming, not reaching.
            if (n->text == "::")
                continue;
            std::size_t after = i + 1;
            if (n->text == "(") {
                // Accessor-call form: `ssd().hostRead(...)` — walk
                // to the matching close paren, then require a member
                // access right after it.
                int depth = 0;
                std::size_t j = i + 1;
                for (; j < toks_.size(); ++j) {
                    if (toks_[j].text == "(") {
                        ++depth;
                    } else if (toks_[j].text == ")" &&
                               --depth == 0) {
                        ++j;
                        break;
                    }
                }
                after = j;
            }
            if (after >= toks_.size())
                continue;
            const std::string &acc = toks_[after].text;
            if (acc != "." && acc != "->")
                continue;
            emit("D7", recv.line,
                 "direct Ssd/Ftl member access `" + recv.text +
                     (n->text == "(" ? "()" : "") + acc +
                     "...` outside the node/array layer: src/core "
                     "code goes through the SsdNode/ArrayCoordinator "
                     "passthroughs so per-node geometry, fault "
                     "domains, and drive death stay behind the "
                     "array; deliberate escapes annotate "
                     "lint:allow(D7: <why>)");
        }
    }

    void
    ruleD8()
    {
        for (const MutableStatic &m : statics_)
            emit("D8", m.line,
                 "mutable " + m.kind + " `" + m.symbol +
                     "` is shared simulator state: make it const, "
                     "move it into an owning object, or annotate "
                     "// lint:allow(D8: <reason>)");
    }

    void
    ruleD9()
    {
        static const std::set<std::string> kAssoc = {
            "map",           "multimap",
            "set",           "multiset",
            "unordered_map", "unordered_set",
            "unordered_multimap", "unordered_multiset"};
        static const std::set<std::string> kSmart = {
            "shared_ptr", "unique_ptr", "weak_ptr"};
        // (a) associative containers keyed by pointer.
        for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
            if (!toks_[i].ident || !kAssoc.count(toks_[i].text) ||
                toks_[i + 1].text != "<")
                continue;
            int depth = 0;
            bool ptr_key = false;
            for (std::size_t j = i + 1; j < toks_.size(); ++j) {
                const std::string &x = toks_[j].text;
                if (x == "<") {
                    ++depth;
                } else if (x == ">") {
                    if (--depth == 0)
                        break;
                } else if (x == "," && depth == 1) {
                    break; // end of the key type
                } else if (x == ";" || x == "{" || x == ")") {
                    break; // not a template argument list
                } else if (x == "*" || (toks_[j].ident &&
                                        kSmart.count(x))) {
                    ptr_key = true;
                }
            }
            if (ptr_key) {
                emit("D9", toks_[i].line,
                     "associative container `" + toks_[i].text +
                         "` keyed by a pointer: key order follows "
                         "allocation addresses, which differ run to "
                         "run (ASLR/allocator) and break replay "
                         "determinism; key by a stable id or "
                         "annotate lint:ptr-ordered-ok(<reason>)");
            }
        }
        // (b)+(c) raw pointer comparisons (`p < q`), which also
        // catches sort comparators whose pointer parameters the
        // phase-1 scan collected.
        for (std::size_t i = 1; i + 1 < toks_.size(); ++i) {
            if (toks_[i].text != "<")
                continue;
            const Token &a = toks_[i - 1];
            const Token &b = toks_[i + 1];
            if (!a.ident || !b.ident)
                continue;
            if (!pointers_.count(a.text) || !pointers_.count(b.text))
                continue;
            // Template argument lists (`foo<p>`, `foo<p, q>`) are
            // not comparisons.
            if (i + 2 < toks_.size() &&
                (toks_[i + 2].text == ">" ||
                 toks_[i + 2].text == ","))
                continue;
            emit("D9", toks_[i].line,
                 "raw pointer comparison `" + a.text + " < " +
                     b.text +
                     "`: address order differs run to run "
                     "(ASLR/allocator) and is not a replayable "
                     "sort key; compare a stable id or annotate "
                     "lint:ptr-ordered-ok(<reason>)");
        }
    }

    void
    ruleD10()
    {
        forEachUnorderedRangeFor([this](std::size_t i, std::size_t,
                                        std::size_t close) {
            // Body extent: `{...}` after the close paren, else the
            // single statement up to `;`.
            std::size_t begin = close + 1, end = toks_.size();
            if (begin < toks_.size() && toks_[begin].text == "{") {
                int depth = 0;
                for (std::size_t j = begin; j < toks_.size(); ++j) {
                    if (toks_[j].text == "{") {
                        ++depth;
                    } else if (toks_[j].text == "}" &&
                               --depth == 0) {
                        end = j;
                        break;
                    }
                }
                ++begin;
            } else {
                for (std::size_t j = begin; j < toks_.size(); ++j) {
                    if (toks_[j].text == ";") {
                        end = j;
                        break;
                    }
                }
            }
            for (std::size_t j = begin;
                 j + 1 < toks_.size() && j < end; ++j) {
                if (!toks_[j].ident || !floats_.count(toks_[j].text))
                    continue;
                const std::string &op = toks_[j + 1].text;
                if (op != "+=" && op != "-=")
                    continue;
                emit("D10", toks_[j].line,
                     "floating-point accumulation `" +
                         toks_[j].text + " " + op +
                         " ...` inside a range-for over an "
                         "unordered container: FP addition is not "
                         "associative, so a free iteration order "
                         "breaks bit-identical replays even where "
                         "D4 was judged harmless (lint:ordered-ok "
                         "does NOT cover this); accumulate over a "
                         "sorted copy or annotate "
                         "lint:allow(D10: <why>)");
            }
            (void)i;
        });
    }

    void
    ruleD12()
    {
        static const std::set<std::string> kSched = {
            "schedule", "scheduleAfter", "scheduleChain",
            "schedulePeriodic"};
        for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
            if (!toks_[i].ident || !kSched.count(toks_[i].text) ||
                toks_[i + 1].text != "(")
                continue;
            int depth = 0;
            std::size_t close = toks_.size();
            for (std::size_t j = i + 1; j < toks_.size(); ++j) {
                if (toks_[j].text == "(") {
                    ++depth;
                } else if (toks_[j].text == ")" && --depth == 0) {
                    close = j;
                    break;
                }
            }
            for (std::size_t j = i + 2; j < close; ++j) {
                if (toks_[j].text != "[")
                    continue;
                int bdepth = 0;
                std::size_t rb = close;
                for (std::size_t k = j; k < close; ++k) {
                    if (toks_[k].text == "[") {
                        ++bdepth;
                    } else if (toks_[k].text == "]" &&
                               --bdepth == 0) {
                        rb = k;
                        break;
                    }
                }
                if (rb >= close || rb + 1 >= toks_.size())
                    break;
                const std::string &after = toks_[rb + 1].text;
                if (after != "(" && after != "{") {
                    j = rb; // subscript, not a lambda
                    continue;
                }
                bool by_ref = false;
                std::string capture;
                for (std::size_t k = j + 1; k < rb; ++k) {
                    capture += toks_[k].text;
                    if (toks_[k].text == "&")
                        by_ref = true;
                }
                if (by_ref) {
                    emit("D12", toks_[j].line,
                         "event callback captures by reference "
                         "(`[" + capture +
                             "]`): the scheduled lambda outlives "
                             "the enclosing scope unless the queue "
                             "is provably drained first, so by-ref "
                             "captures of locals are "
                             "use-after-scope; capture by value "
                             "(or capture the owning object) or "
                             "annotate lint:allow(D12: <why the "
                             "queue drains first>)");
                }
                j = rb;
            }
        }
    }

    const std::string &path_;
    const StrippedSource &src_;
    const Options &opts_;
    const std::set<std::string> &unordered_;
    const std::set<std::string> &floats_;
    const std::set<std::string> &pointers_;
    const std::vector<MutableStatic> &statics_;
    Report &report_;
    std::vector<Token> toks_;
};

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        throw std::runtime_error("deepstore_lint: cannot read " +
                                 p.string());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Sorted list of *.cc / *.h under dir (missing dir -> empty). */
std::vector<fs::path>
sourceFilesUnder(const fs::path &dir)
{
    std::vector<fs::path> files;
    if (!fs::exists(dir))
        return files;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file())
            continue;
        auto ext = e.path().extension().string();
        if (ext == ".cc" || ext == ".h")
            files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

/**
 * Blank preprocessor lines (and their backslash continuations) in
 * already-stripped code: `#include <map>` has no terminating `;`, so
 * it would otherwise bleed into the next statement the D8 scope scan
 * analyzes.
 */
std::string
blankPreprocessor(const std::string &code)
{
    std::string out = code;
    std::size_t pos = 0;
    while (pos < out.size()) {
        std::size_t eol = out.find('\n', pos);
        if (eol == std::string::npos)
            eol = out.size();
        std::size_t first = pos;
        while (first < eol &&
               std::isspace(static_cast<unsigned char>(out[first])))
            ++first;
        if (first < eol && out[first] == '#') {
            bool continues = true;
            while (continues && pos < out.size()) {
                eol = out.find('\n', pos);
                if (eol == std::string::npos)
                    eol = out.size();
                continues = eol > pos && out[eol - 1] == '\\';
                for (std::size_t i = pos; i < eol; ++i)
                    out[i] = ' ';
                pos = eol + 1;
            }
            continue;
        }
        pos = eol + 1;
    }
    return out;
}

/** JSON string escaping for the --json serializer. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** 1-based line number of a character offset in @p text. */
int
lineOfOffset(const std::string &text, std::size_t off)
{
    return 1 + static_cast<int>(
                   std::count(text.begin(), text.begin() + off,
                              '\n'));
}

} // namespace

std::vector<std::string>
collectUnorderedNames(const std::string &content)
{
    std::vector<std::string> names;
    StrippedSource src = stripSource(content);
    std::vector<Token> toks = tokenize(src.code);
    static const std::set<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident || !kUnordered.count(toks[i].text))
            continue;
        std::size_t j = i + 1;
        if (j >= toks.size() || toks[j].text != "<")
            continue;
        // Balance template angle brackets (tokens are single chars,
        // so >> arrives as two > tokens).
        int depth = 0;
        for (; j < toks.size(); ++j) {
            if (toks[j].text == "<")
                ++depth;
            else if (toks[j].text == ">" && --depth == 0) {
                ++j;
                break;
            } else if (toks[j].text == ";") {
                break; // malformed / not a declaration
            }
        }
        // Skip declarator decorations, take the variable name.
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*" ||
                toks[j].text == "const"))
            ++j;
        if (j < toks.size() && toks[j].ident)
            names.push_back(toks[j].text);
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()),
                names.end());
    return names;
}

std::vector<std::string>
collectFloatNames(const std::string &content)
{
    std::vector<std::string> names;
    StrippedSource src = stripSource(content);
    std::vector<Token> toks = tokenize(src.code);
    static const std::set<std::string> kFollower = {
        ";", "=", ",", ")", "{", "[", ":"};
    auto follows = [&](std::size_t j) {
        return j + 1 < toks.size() &&
               kFollower.count(toks[j + 1].text) != 0;
    };
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident ||
            (toks[i].text != "float" && toks[i].text != "double"))
            continue;
        std::size_t j = i + 1;
        while (j < toks.size() && (toks[j].text == "const" ||
                                   toks[j].text == "&"))
            ++j;
        if (j >= toks.size() || !toks[j].ident || !follows(j))
            continue; // pointer, template arg, cast, ...
        names.push_back(toks[j].text);
        // Multi-declarator: `double a = 0, b = 0;`
        int depth = 0;
        for (std::size_t k = j + 1; k < toks.size(); ++k) {
            const std::string &x = toks[k].text;
            if (x == "(" || x == "[" || x == "{") {
                ++depth;
            } else if (x == ")" || x == "]" || x == "}") {
                if (--depth < 0)
                    break;
            } else if (x == ";" && depth == 0) {
                break;
            } else if (x == "," && depth == 0) {
                std::size_t m = k + 1;
                while (m < toks.size() && (toks[m].text == "const" ||
                                           toks[m].text == "&"))
                    ++m;
                if (m < toks.size() && toks[m].ident && follows(m))
                    names.push_back(toks[m].text);
            }
        }
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()),
                names.end());
    return names;
}

std::vector<std::string>
collectPointerNames(const std::string &content)
{
    std::vector<std::string> names;
    StrippedSource src = stripSource(content);
    std::vector<Token> toks = tokenize(src.code);
    static const std::set<std::string> kBoundary = {
        ";", "{", "}", "(", ",", "<", ":"};
    static const std::set<std::string> kDeclKeywords = {
        "const",    "static",       "constexpr", "constinit",
        "inline",   "extern",       "mutable",   "thread_local",
        "volatile", "register",     "auto",      "typename",
        "struct",   "class",        "using"};
    static const std::set<std::string> kFollower = {
        ";", "=", ",", ")", "[", "{", ":"};
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
        if (toks[i].text != "*")
            continue;
        const Token &p = toks[i - 1];
        bool prev_type = p.ident;
        bool prev_deco = p.text == ">" || p.text == "*";
        if (!prev_type && !prev_deco)
            continue;
        // Declared name: `* [const] name` followed by a declarator
        // terminator.
        std::size_t j = i + 1;
        while (j < toks.size() && toks[j].text == "const")
            ++j;
        if (j >= toks.size() || !toks[j].ident)
            continue;
        if (j + 1 >= toks.size() ||
            !kFollower.count(toks[j + 1].text))
            continue;
        // Walk back over the `ns::Type` chain to the token before
        // the type name; a declaration starts at a statement
        // boundary or another declaration keyword. This is what
        // separates `Node *n;` from the multiplication `a * b`.
        std::size_t k = i - 1;
        if (prev_type) {
            while (k >= 2 && toks[k - 1].text == "::" &&
                   toks[k - 2].ident)
                k -= 2;
        }
        bool boundary_ok = true;
        std::string boundary;
        if (k >= 1) {
            const Token &b = toks[k - 1];
            boundary = b.text;
            boundary_ok =
                kBoundary.count(b.text) != 0 ||
                (b.ident && kDeclKeywords.count(b.text) != 0);
        }
        if (!boundary_ok)
            continue;
        // Parameter positions `f(a * b)` are ambiguous with calls;
        // only trust them when the type looks like one (CamelCase)
        // or cv-qualification/decoration disambiguates.
        if ((boundary == "(" || boundary == ",") && prev_type &&
            !prev_deco &&
            !std::isupper(static_cast<unsigned char>(p.text[0])))
            continue;
        names.push_back(toks[j].text);
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()),
                names.end());
    return names;
}

std::vector<MutableStatic>
collectMutableStatics(const std::string &content)
{
    std::vector<MutableStatic> out;
    StrippedSource src = stripSource(content);
    std::vector<Token> toks =
        tokenize(blankPreprocessor(src.code));

    enum class Scope { Namespace, Class, Block, BraceInit };
    std::vector<Scope> stack;
    std::vector<Token> stmt;

    // Statement keywords that mean "not a variable declaration".
    static const std::set<std::string> kSkip = {
        "using",     "typedef",   "extern",   "friend",
        "template",  "operator",  "class",    "struct",
        "union",     "enum",      "namespace", "static_assert",
        "return",    "if",        "for",      "while",
        "do",        "switch",    "case",     "break",
        "continue",  "goto",      "throw",    "delete",
        "public",    "private",   "protected", "default",
        "else",      "try",       "catch",    "sizeof",
        "constexpr", "consteval", "concept",  "requires",
        "asm"};

    auto inBraceInit = [&] {
        return !stack.empty() && stack.back() == Scope::BraceInit;
    };

    auto analyze = [&](const std::vector<Token> &s) {
        if (s.empty())
            return;
        bool has_static = false;
        for (const Token &t : s)
            if (t.ident &&
                (t.text == "static" || t.text == "thread_local"))
                has_static = true;
        bool all_namespace = true;
        for (Scope sc : stack)
            if (sc != Scope::Namespace)
                all_namespace = false;
        if (!has_static && !all_namespace)
            return;
        std::string kind;
        if (all_namespace)
            kind = "global";
        else if (stack.back() == Scope::Class)
            kind = "class-static";
        else
            kind = "local-static";
        for (const Token &t : s)
            if (t.ident && kSkip.count(t.text))
                return;
        // Pre-initializer portion: up to the first `=` outside
        // parens/brackets.
        std::size_t end = s.size();
        int depth = 0;
        for (std::size_t i = 0; i < s.size(); ++i) {
            const std::string &x = s[i].text;
            if (x == "(" || x == "[")
                ++depth;
            else if (x == ")" || x == "]")
                --depth;
            else if (x == "=" && depth == 0) {
                end = i;
                break;
            }
        }
        int idents = 0;
        for (std::size_t i = 0; i < end; ++i) {
            if (s[i].text == "(")
                return; // function declaration / ctor-call init
            if (s[i].ident)
                ++idents;
        }
        if (idents < 2)
            return; // need at least a type and a name
        // const-ness: `const` without a later `*` declares an
        // immutable value (or pointer); `const T *p` leaves the
        // pointer itself mutable.
        std::size_t last_const = end;
        for (std::size_t i = 0; i < end; ++i)
            if (s[i].ident && s[i].text == "const")
                last_const = i;
        if (last_const != end) {
            bool star_after = false;
            for (std::size_t i = last_const + 1; i < end; ++i)
                if (s[i].text == "*")
                    star_after = true;
            if (!star_after)
                return;
        }
        // Name: last identifier before the initializer, skipping a
        // trailing `[array-extent]`.
        std::size_t i = end;
        while (i > 0) {
            --i;
            if (s[i].text == "]") {
                int bd = 0;
                while (i > 0) {
                    if (s[i].text == "]")
                        ++bd;
                    else if (s[i].text == "[" && --bd == 0)
                        break;
                    --i;
                }
                continue;
            }
            if (s[i].ident) {
                out.push_back({s[i].line, s[i].text, kind});
                return;
            }
            if (s[i].text == ">" || s[i].text == "*" ||
                s[i].text == "&")
                continue;
            return; // unexpected shape; not a plain declaration
        }
    };

    for (const Token &t : toks) {
        if (t.text == "{") {
            if (inBraceInit()) {
                stack.push_back(Scope::BraceInit);
                continue;
            }
            bool has_eq = false, has_paren = false;
            int depth = 0;
            bool has_ns = false, has_class = false;
            for (const Token &s : stmt) {
                if (s.text == "(" || s.text == "[") {
                    ++depth;
                    if (s.text == "(")
                        has_paren = true;
                } else if (s.text == ")" || s.text == "]") {
                    --depth;
                } else if (s.text == "=" && depth == 0) {
                    has_eq = true;
                } else if (s.ident) {
                    if (s.text == "namespace")
                        has_ns = true;
                    else if (s.text == "class" ||
                             s.text == "struct" ||
                             s.text == "union" || s.text == "enum")
                        has_class = true;
                }
            }
            if (has_eq) {
                stack.push_back(Scope::BraceInit);
                // keep stmt: the declaration ends at the `;` after
                // the brace initializer
            } else if (has_ns) {
                stack.push_back(Scope::Namespace);
                stmt.clear();
            } else if (has_class) {
                stack.push_back(Scope::Class);
                stmt.clear();
            } else if (!stmt.empty() && stmt.back().ident &&
                       !kSkip.count(stmt.back().text) &&
                       !has_paren) {
                // `static int hits{0};` — direct brace init
                stack.push_back(Scope::BraceInit);
            } else {
                stack.push_back(Scope::Block);
                stmt.clear();
            }
        } else if (t.text == "}") {
            if (stack.empty())
                continue;
            Scope popped = stack.back();
            stack.pop_back();
            if (popped != Scope::BraceInit)
                stmt.clear();
        } else if (t.text == ";") {
            if (inBraceInit())
                continue;
            analyze(stmt);
            stmt.clear();
        } else if (!inBraceInit()) {
            stmt.push_back(t);
        }
    }
    return out;
}

void
lintSource(const std::string &path, const std::string &content,
           const Options &opts, const FileContext &ctx,
           Report &report)
{
    std::set<std::string> unordered(ctx.unorderedNames.begin(),
                                    ctx.unorderedNames.end());
    for (const auto &n : collectUnorderedNames(content))
        unordered.insert(n);
    std::set<std::string> floats(ctx.floatNames.begin(),
                                 ctx.floatNames.end());
    for (const auto &n : collectFloatNames(content))
        floats.insert(n);
    std::set<std::string> pointers(ctx.pointerNames.begin(),
                                   ctx.pointerNames.end());
    for (const auto &n : collectPointerNames(content))
        pointers.insert(n);
    std::vector<MutableStatic> statics =
        collectMutableStatics(content);
    StrippedSource src = stripSource(content);
    FileLinter linter(path, src, opts, unordered, floats, pointers,
                      statics, report);
    linter.run();
}

void
lintSource(const std::string &path, const std::string &content,
           const Options &opts,
           const std::vector<std::string> &unordered_names,
           Report &report)
{
    FileContext ctx;
    ctx.unorderedNames = unordered_names;
    lintSource(path, content, opts, ctx, report);
}

Report
lintTree(const std::string &root, const Options &opts)
{
    Report report;
    fs::path rootp(root);

    std::vector<fs::path> files =
        sourceFilesUnder(rootp / "src");
    for (const auto &p : sourceFilesUnder(rootp / "tests"))
        files.push_back(p);

    // ---- Phase 1: cross-TU index --------------------------------
    // Headers declare the members, .cc files use them, so the name
    // sets are collected tree-wide. Unordered-container names are
    // shared as-is; float/pointer names are only shared when they
    // look like members (trailing underscore) — sharing every local
    // `i`/`p` across TUs would drown D9/D10 in collisions.
    FileContext ctx;
    std::vector<std::pair<std::string, std::string>> contents;
    contents.reserve(files.size());
    for (const auto &p : files) {
        std::string text = readFile(p);
        for (const auto &n : collectUnorderedNames(text))
            ctx.unorderedNames.push_back(n);
        for (const auto &n : collectFloatNames(text))
            if (!n.empty() && n.back() == '_')
                ctx.floatNames.push_back(n);
        for (const auto &n : collectPointerNames(text))
            if (!n.empty() && n.back() == '_')
                ctx.pointerNames.push_back(n);
        contents.emplace_back(
            fs::relative(p, rootp).generic_string(),
            std::move(text));
    }
    for (auto *v : {&ctx.unorderedNames, &ctx.floatNames,
                    &ctx.pointerNames}) {
        std::sort(v->begin(), v->end());
        v->erase(std::unique(v->begin(), v->end()), v->end());
    }

    // ---- Phase 2: per-file token rules --------------------------
    for (const auto &[rel, text] : contents)
        lintSource(rel, text, opts, ctx, report);

    // ---- D5: structural checks ----------------------------------
    if (opts.enabled("D5")) {
        // Every tests/.../test_*.cc is registered in
        // tests/CMakeLists.txt.
        fs::path cml = rootp / "tests" / "CMakeLists.txt";
        std::string cml_text =
            fs::exists(cml) ? readFile(cml) : std::string();
        for (const auto &p : sourceFilesUnder(rootp / "tests")) {
            std::string base = p.filename().string();
            if (base.rfind("test_", 0) != 0 ||
                p.extension() != ".cc")
                continue;
            std::string rel =
                fs::relative(p, rootp / "tests").generic_string();
            if (cml_text.find(rel) == std::string::npos) {
                report.findings.push_back(
                    {"tests/CMakeLists.txt", 1, "D5",
                     "test file tests/" + rel +
                         " is not registered in "
                         "tests/CMakeLists.txt (it would silently "
                         "never run)"});
            }
        }
        // Every bench/bench_*.cc emits a JsonReport.
        for (const auto &p : sourceFilesUnder(rootp / "bench")) {
            std::string base = p.filename().string();
            if (base.rfind("bench_", 0) != 0 ||
                p.extension() != ".cc")
                continue;
            StrippedSource src = stripSource(readFile(p));
            bool has = false;
            for (const Token &t : tokenize(src.code)) {
                if (t.ident && t.text == "JsonReport") {
                    has = true;
                    break;
                }
            }
            if (has)
                continue;
            // Structural rule, so the suppression is file-level: a
            // lint:allow(D5: ...) comment anywhere in the bench.
            bool suppressed = false;
            for (std::size_t l = 0; l < src.comments.size(); ++l) {
                for (const Annotation &a :
                     parseAnnotations(src.comments[l])) {
                    if (a.rule != "D5")
                        continue;
                    std::string reason = trim(a.reason);
                    if (reason.empty()) {
                        report.findings.push_back(
                            {"bench/" + base,
                             static_cast<int>(l + 1), "D5",
                             "suppression missing a reason: write "
                             "lint:allow(D5: <why>)"});
                    } else {
                        report.suppressions.push_back(
                            {"bench/" + base,
                             static_cast<int>(l + 1), "D5",
                             reason});
                    }
                    suppressed = true;
                }
            }
            if (!suppressed) {
                report.findings.push_back(
                    {"bench/" + base, 1, "D5",
                     "bench binary emits no JsonReport: CI and the "
                     "plotting scripts consume BENCH_<name>.json, "
                     "not the text tables"});
            }
        }
    }

    // ---- D11: stats schema completeness -------------------------
    if (opts.enabled("D11")) {
        const std::string schema_rel = "src/common/stats_schema.h";
        struct SchemaEntry
        {
            int line = 0;
            bool row = false;
        };
        std::map<std::string, SchemaEntry> schema;
        std::string schema_text;
        for (const auto &[rel, text] : contents)
            if (rel == schema_rel)
                schema_text = text;
        static const std::regex kEntry(
            R"(\bDS_STAT(_ROW)?\s*\(\s*"([^"]+)\")");
        for (auto it = std::sregex_iterator(schema_text.begin(),
                                            schema_text.end(),
                                            kEntry);
             it != std::sregex_iterator(); ++it) {
            SchemaEntry e;
            e.line = lineOfOffset(schema_text,
                                  static_cast<std::size_t>(
                                      it->position(0)));
            e.row = (*it)[1].matched;
            schema[(*it)[2]] = e;
        }

        // Literal-preserving strips of every src/ file (the stat
        // names live inside string literals).
        std::vector<std::pair<std::string, StrippedSource>> kept;
        for (const auto &[rel, text] : contents)
            if (rel.rfind("src/", 0) == 0 && rel != schema_rel)
                kept.emplace_back(rel, stripSource(text, true));

        static const std::regex kGet(
            R"([.>]\s*get\s*\(\s*"([^"]+)\")");
        static const std::regex kRow(
            R"(<<\s*"\s*([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)+)\s*=)");
        for (const auto &[rel, src] : kept) {
            for (auto it = std::sregex_iterator(src.code.begin(),
                                                src.code.end(),
                                                kGet);
                 it != std::sregex_iterator(); ++it) {
                std::string name = (*it)[1];
                int line = lineOfOffset(
                    src.code,
                    static_cast<std::size_t>(it->position(0)));
                auto s = schema.find(name);
                if (s == schema.end()) {
                    emitFinding(
                        report, src, rel, "D11", line,
                        "stat `" + name +
                            "` is bumped via StatGroup::get but "
                            "not registered in " +
                            schema_rel + "; add DS_STAT(\"" + name +
                            "\", \"<what it counts>\") so the "
                            "stats surface stays complete");
                } else if (s->second.row) {
                    emitFinding(
                        report, src, rel, "D11", line,
                        "stat `" + name +
                            "` is registered as DS_STAT_ROW (a "
                            "manually printed row) but used via "
                            "StatGroup::get; register it as "
                            "DS_STAT");
                }
            }
            for (auto it = std::sregex_iterator(src.code.begin(),
                                                src.code.end(),
                                                kRow);
                 it != std::sregex_iterator(); ++it) {
                std::string name = (*it)[1];
                int line = lineOfOffset(
                    src.code,
                    static_cast<std::size_t>(it->position(0)));
                auto s = schema.find(name);
                if (s == schema.end()) {
                    emitFinding(
                        report, src, rel, "D11", line,
                        "manually printed stats row `" + name +
                            "` is not registered in " + schema_rel +
                            "; the guarded-row idiom is "
                            "first-class: add DS_STAT_ROW(\"" +
                            name +
                            "\", \"<when the row appears>\")");
                } else if (!s->second.row) {
                    emitFinding(
                        report, src, rel, "D11", line,
                        "stat `" + name +
                            "` is registered as DS_STAT but "
                            "printed as a manual row; register it "
                            "as DS_STAT_ROW documenting when the "
                            "row appears");
                }
            }
        }
        // Stale entries: a registered name no src/ file references
        // (the search is a substring match over literal-preserving
        // code, so dynamically composed names — e.g. a ternary
        // picking between two literals — still count).
        if (!schema.empty()) {
            StrippedSource schema_src =
                stripSource(schema_text, true);
            for (const auto &[name, entry] : schema) {
                bool referenced = false;
                for (const auto &[rel, src] : kept) {
                    if (src.code.find(name) != std::string::npos) {
                        referenced = true;
                        break;
                    }
                }
                if (!referenced) {
                    emitFinding(
                        report, schema_src, schema_rel, "D11",
                        entry.line,
                        "registered stat `" + name +
                            "` is referenced nowhere under src/ — "
                            "stale schema entry (remove it, or "
                            "wire up the counter)");
                }
            }
        }
    }

    return report;
}

std::string
formatReport(const Report &report, bool verbose)
{
    std::ostringstream os;
    for (const Finding &f : report.findings)
        os << f.file << ":" << f.line << ": [" << f.rule << "] "
           << f.message << "\n";
    if (verbose) {
        for (const Suppression &s : report.suppressions)
            os << "note: " << s.file << ":" << s.line << ": ["
               << s.rule << "] suppressed: " << s.reason << "\n";
    }
    os << "deepstore_lint: " << report.findings.size()
       << " finding(s), " << report.suppressions.size()
       << " suppression(s) honoured\n";
    return os.str();
}

std::string
formatJson(const Report &report)
{
    std::map<std::string, std::pair<int, int>> by_rule;
    for (const Finding &f : report.findings)
        ++by_rule[f.rule].first;
    for (const Suppression &s : report.suppressions)
        ++by_rule[s.rule].second;

    std::ostringstream os;
    os << "{\n";
    os << "  \"counts\": {\n";
    os << "    \"findings\": " << report.findings.size() << ",\n";
    os << "    \"suppressions\": " << report.suppressions.size()
       << ",\n";
    os << "    \"byRule\": {";
    bool first = true;
    for (const auto &[rule, counts] : by_rule) {
        os << (first ? "" : ",") << "\n      \"" << rule
           << "\": {\"findings\": " << counts.first
           << ", \"suppressions\": " << counts.second << "}";
        first = false;
    }
    if (!by_rule.empty())
        os << "\n    ";
    os << "}\n";
    os << "  },\n";
    os << "  \"findings\": [";
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        const Finding &f = report.findings[i];
        os << (i ? "," : "") << "\n    {\"file\": \""
           << jsonEscape(f.file) << "\", \"line\": " << f.line
           << ", \"rule\": \"" << f.rule << "\", \"message\": \""
           << jsonEscape(f.message) << "\"}";
    }
    if (!report.findings.empty())
        os << "\n  ";
    os << "],\n";
    os << "  \"suppressions\": [";
    for (std::size_t i = 0; i < report.suppressions.size(); ++i) {
        const Suppression &s = report.suppressions[i];
        os << (i ? "," : "") << "\n    {\"file\": \""
           << jsonEscape(s.file) << "\", \"line\": " << s.line
           << ", \"rule\": \"" << s.rule << "\", \"reason\": \""
           << jsonEscape(s.reason) << "\"}";
    }
    if (!report.suppressions.empty())
        os << "\n  ";
    os << "]\n";
    os << "}\n";
    return os.str();
}

} // namespace deepstore::lint
