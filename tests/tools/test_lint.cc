/**
 * @file
 * Fixture tests for deepstore_lint: each determinism rule D1-D12 is
 * pinned positive (the bad fixture fires, with the expected rule and
 * line) and negative (the good fixture stays clean), and the
 * suppression machinery is pinned to honour annotated findings, count
 * them, and reject reasonless annotations.
 *
 * The fixtures are checked-in `.snippet` files (an extension the tree
 * walk ignores, so the linter never lints its own test corpus) under
 * tests/tools/fixtures/. D5 and D11 are structural/tree-level, so
 * their cases build a miniature repo tree in the test temp dir.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "lint.h"

namespace fs = std::filesystem;
using namespace deepstore::lint;

namespace {

std::string
readFixture(const std::string &name)
{
    fs::path p = fs::path(DEEPSTORE_LINT_FIXTURE_DIR) / name;
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

Report
lintFixture(const std::string &name,
            const std::string &path_override = "",
            const Options &opts = {})
{
    Report report;
    std::string path =
        path_override.empty() ? "src/fixture/" + name : path_override;
    lintSource(path, readFixture(name), opts, FileContext{}, report);
    return report;
}

std::vector<std::string>
rulesOf(const Report &r)
{
    std::vector<std::string> rules;
    for (const auto &f : r.findings)
        rules.push_back(f.rule);
    return rules;
}

// ---- D1: wall-clock APIs ----------------------------------------

TEST(LintD1, BadFixtureFiresOnBothWallClockUses)
{
    Report r = lintFixture("d1_bad.snippet");
    ASSERT_EQ(r.findings.size(), 2u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D1");
    EXPECT_EQ(r.findings[0].line, 5); // steady_clock
    EXPECT_EQ(r.findings[1].rule, "D1");
    EXPECT_EQ(r.findings[1].line, 6); // time(nullptr)
    EXPECT_TRUE(r.suppressions.empty());
}

TEST(LintD1, GoodFixtureIsClean)
{
    // Declarations (`sim::Clock clock(...)`), comments and string
    // literals must not fire.
    Report r = lintFixture("d1_good.snippet");
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
}

TEST(LintD1, BenchDirectoryIsExempt)
{
    Report r = lintFixture("d1_bad.snippet", "bench/bench_wall.cc");
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
}

// ---- D2: unseeded randomness ------------------------------------

TEST(LintD2, BadFixtureFiresOnEveryRngEscape)
{
    Report r = lintFixture("d2_bad.snippet");
    ASSERT_EQ(r.findings.size(), 3u) << formatReport(r, true);
    EXPECT_EQ(rulesOf(r),
              (std::vector<std::string>{"D2", "D2", "D2"}));
    EXPECT_EQ(r.findings[0].line, 5); // std::mt19937
    EXPECT_EQ(r.findings[1].line, 6); // rand()
    EXPECT_EQ(r.findings[2].line, 7); // std::random_device
}

TEST(LintD2, GoodFixtureIsClean)
{
    // Rng usage plus a *declared function* named `random` (the
    // declaration heuristic must not treat it as a call).
    Report r = lintFixture("d2_good.snippet");
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
}

TEST(LintD2, CommonRngItselfIsExempt)
{
    Report r = lintFixture("d2_bad.snippet", "src/common/rng.h");
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
}

// ---- D3: direct sim-time accumulation ---------------------------

TEST(LintD3, BadFixtureFiresOnSecondsAndTickMembers)
{
    Report r = lintFixture("d3_bad.snippet");
    ASSERT_EQ(r.findings.size(), 2u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D3");
    EXPECT_EQ(r.findings[0].line, 5); // simSeconds_ +=
    EXPECT_EQ(r.findings[1].rule, "D3");
    EXPECT_EQ(r.findings[1].line, 6); // now_ +=
}

TEST(LintD3, SuppressionsAreHonouredAndCounted)
{
    // Same-line and line-above annotations both suppress, both
    // record their reasons, and nothing leaks through as a finding.
    Report r = lintFixture("d3_suppressed.snippet");
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
    ASSERT_EQ(r.suppressions.size(), 2u);
    EXPECT_EQ(r.suppressions[0].rule, "D3");
    EXPECT_EQ(r.suppressions[0].reason,
              "result struct, not the clock");
    EXPECT_EQ(r.suppressions[1].rule, "D3");
    EXPECT_EQ(r.suppressions[1].reason,
              "analytic decomposition term");
}

TEST(LintD3, TimeLedgerAndSimKernelAreExempt)
{
    EXPECT_TRUE(lintFixture("d3_bad.snippet",
                            "src/core/time_ledger.cc")
                    .clean());
    EXPECT_TRUE(
        lintFixture("d3_bad.snippet", "src/sim/event_queue.cc")
            .clean());
}

// ---- D4: unordered iteration ------------------------------------

TEST(LintD4, BadFixtureFiresOnUnorderedRangeFor)
{
    Report r = lintFixture("d4_bad.snippet");
    ASSERT_EQ(r.findings.size(), 1u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D4");
    EXPECT_EQ(r.findings[0].line, 6);
}

TEST(LintD4, OrderedOkAnnotationAndStdMapAreClean)
{
    Report r = lintFixture("d4_good.snippet");
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
    ASSERT_EQ(r.suppressions.size(), 1u);
    EXPECT_EQ(r.suppressions[0].rule, "D4");
    EXPECT_EQ(r.suppressions[0].reason, "summing is commutative");
}

TEST(LintD4, CrossFileUnorderedNamesAreRespected)
{
    // A header declares the member; the .cc only sees the name. The
    // tree pass feeds collected names in via unordered_names.
    const std::string cc =
        "void dump() {\n"
        "    for (const auto &kv : members_)\n"
        "        use(kv);\n"
        "}\n";
    Report with;
    lintSource("src/x.cc", cc, {}, {"members_"}, with);
    ASSERT_EQ(with.findings.size(), 1u);
    EXPECT_EQ(with.findings[0].rule, "D4");
    EXPECT_EQ(with.findings[0].line, 2);

    Report without;
    lintSource("src/x.cc", cc, {}, FileContext{}, without);
    EXPECT_TRUE(without.clean());
}

TEST(LintD4, CollectUnorderedNamesFindsDeclarations)
{
    auto names = collectUnorderedNames(
        "std::unordered_map<std::uint64_t, Entry> map_;\n"
        "std::unordered_set<int> seen;\n"
        "std::map<int, int> sorted_;\n");
    EXPECT_EQ(names,
              (std::vector<std::string>{"map_", "seen"}));
}

// ---- D6: closed-form ledger advances in the scan path -----------

TEST(LintD6, BadFixtureFiresOnMemberAndPointerAdvances)
{
    Report r =
        lintFixture("d6_bad.snippet", "src/core/engine.cc");
    ASSERT_EQ(r.findings.size(), 2u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D6");
    EXPECT_EQ(r.findings[0].line, 6); // ledger_.advance
    EXPECT_EQ(r.findings[1].rule, "D6");
    EXPECT_EQ(r.findings[1].line, 7); // hostLedger->advance
    EXPECT_TRUE(r.suppressions.empty());
}

TEST(LintD6, GoodFixtureAllowlistAndNonLedgerAreClean)
{
    // A reasoned lint:allow(D6: ...) allowlists the host fast path;
    // advance() on a non-ledger receiver and event scheduling never
    // fire.
    Report r =
        lintFixture("d6_good.snippet", "src/core/engine.cc");
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
    ASSERT_EQ(r.suppressions.size(), 1u);
    EXPECT_EQ(r.suppressions[0].rule, "D6");
    EXPECT_EQ(r.suppressions[0].reason,
              "host bulk-ingest fast path, not the scan datapath");
}

TEST(LintD6, OnlyTheLiveScanPathIsInScope)
{
    // The rule polices src/core/ only: the analytic model helpers
    // elsewhere, the tests, and TimeLedger's own implementation may
    // call advance() freely.
    EXPECT_TRUE(lintFixture("d6_bad.snippet").clean());
    EXPECT_TRUE(
        lintFixture("d6_bad.snippet", "tests/core/test_x.cc")
            .clean());
    EXPECT_TRUE(lintFixture("d6_bad.snippet",
                            "src/core/time_ledger.cc")
                    .clean());
}

// ---- D7: Ssd/Ftl reach-ins outside the node layer ---------------

TEST(LintD7, BadFixtureFiresOnPointerCallAndObjectAccess)
{
    Report r =
        lintFixture("d7_bad.snippet", "src/core/engine.cc");
    ASSERT_EQ(r.findings.size(), 3u) << formatReport(r, true);
    EXPECT_EQ(rulesOf(r),
              (std::vector<std::string>{"D7", "D7", "D7"}));
    EXPECT_EQ(r.findings[0].line, 6); // ssd_->hostRead
    EXPECT_EQ(r.findings[1].line, 7); // ssd().dramLink()
    EXPECT_EQ(r.findings[2].line, 8); // ftl_.translate
    EXPECT_TRUE(r.suppressions.empty());
}

TEST(LintD7, GoodFixtureQualificationAndAllowlistAreClean)
{
    // `ssd::` scope qualification, enum naming, an accessor
    // *declaration* named ssd(), and a reasoned lint:allow(D7: ...)
    // must all stay quiet.
    Report r =
        lintFixture("d7_good.snippet", "src/core/engine.cc");
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
    ASSERT_EQ(r.suppressions.size(), 1u);
    EXPECT_EQ(r.suppressions[0].rule, "D7");
    EXPECT_EQ(r.suppressions[0].reason,
              "metadata region owned by the engine, not scan state");
}

TEST(LintD7, NodeLayerIsExempt)
{
    // core/ssd_node *is* the encapsulation layer; everything outside
    // src/core/ (ssd/, tests/) owns its devices by definition. The
    // array layer above the nodes gets no exemption.
    EXPECT_TRUE(lintFixture("d7_bad.snippet",
                            "src/core/ssd_node.cc")
                    .clean());
    EXPECT_EQ(lintFixture("d7_bad.snippet",
                          "src/core/array_coordinator.cc")
                  .findings.size(),
              3u);
    EXPECT_TRUE(
        lintFixture("d7_bad.snippet", "src/ssd/ssd.cc").clean());
    EXPECT_TRUE(
        lintFixture("d7_bad.snippet", "tests/core/test_x.cc")
            .clean());
}

// ---- Suppression hygiene ----------------------------------------

TEST(LintSuppression, ReasonlessAnnotationIsItselfAFinding)
{
    Report r = lintFixture("noreason.snippet");
    ASSERT_EQ(r.findings.size(), 1u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D1");
    EXPECT_EQ(r.findings[0].line, 5);
    EXPECT_NE(r.findings[0].message.find("missing a reason"),
              std::string::npos);
    EXPECT_TRUE(r.suppressions.empty());
}

TEST(LintSuppression, WrongRuleAnnotationDoesNotSuppress)
{
    // The D2 annotation suppresses nothing here: the wall-clock
    // read is D1, and the namespace-scope `auto t = ...` is itself
    // an unannotated mutable global (D8).
    Report r;
    lintSource("src/x.cc",
               "// lint:allow(D2: not the right rule)\n"
               "auto t = std::chrono::steady_clock::now();\n",
               {}, FileContext{}, r);
    ASSERT_EQ(r.findings.size(), 2u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D1");
    EXPECT_EQ(r.findings[1].rule, "D8");
    EXPECT_TRUE(r.suppressions.empty());
}

// ---- Rule selection ---------------------------------------------

TEST(LintOptions, RuleFilterDisablesOtherRules)
{
    Options only_d2;
    only_d2.rules = {"D2"};
    EXPECT_TRUE(
        lintFixture("d1_bad.snippet", "", only_d2).clean());
    EXPECT_FALSE(
        lintFixture("d2_bad.snippet", "", only_d2).clean());
}

// ---- stripSource ------------------------------------------------

TEST(LintStrip, LiteralsAndCommentsAreBlanked)
{
    StrippedSource s = stripSource(
        "int a = 1; // rand() in a comment\n"
        "const char *s = \"std::mt19937 inside a string\";\n"
        "auto r = R\"(raw rand() string)\";\n");
    EXPECT_EQ(s.code.find("rand"), std::string::npos);
    EXPECT_EQ(s.code.find("mt19937"), std::string::npos);
    // A trailing newline yields a final empty line entry.
    ASSERT_GE(s.comments.size(), 3u);
    EXPECT_NE(s.comments[0].find("rand() in a comment"),
              std::string::npos);
}

// ---- D5: structural tree checks ---------------------------------

class LintD5 : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = fs::path(::testing::TempDir()) /
                ("lint_d5_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()));
        fs::remove_all(root_);
        fs::create_directories(root_ / "tests" / "core");
        fs::create_directories(root_ / "bench");
        fs::create_directories(root_ / "src");
    }

    void
    TearDown() override
    {
        fs::remove_all(root_);
    }

    void
    write(const fs::path &rel, const std::string &text)
    {
        std::ofstream out(root_ / rel, std::ios::binary);
        out << text;
    }

    Report
    lint()
    {
        return lintTree(root_.string(), {});
    }

    fs::path root_;
};

TEST_F(LintD5, UnregisteredTestFileIsAFinding)
{
    write("tests/CMakeLists.txt",
          "ds_add_test(test_core core/test_known.cc)\n");
    write("tests/core/test_known.cc", "int main() {}\n");
    write("tests/core/test_orphan.cc", "int main() {}\n");
    Report r = lint();
    ASSERT_EQ(r.findings.size(), 1u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D5");
    EXPECT_NE(r.findings[0].message.find("test_orphan.cc"),
              std::string::npos);
}

TEST_F(LintD5, RegisteredTestsAreClean)
{
    write("tests/CMakeLists.txt",
          "ds_add_test(test_core core/test_known.cc)\n");
    write("tests/core/test_known.cc", "int main() {}\n");
    EXPECT_TRUE(lint().clean());
}

TEST_F(LintD5, BenchWithoutJsonReportIsAFinding)
{
    write("tests/CMakeLists.txt", "\n");
    write("bench/bench_silent.cc",
          "int main() { /* prints text only */ }\n");
    Report r = lint();
    ASSERT_EQ(r.findings.size(), 1u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D5");
    EXPECT_EQ(r.findings[0].file, "bench/bench_silent.cc");
}

TEST_F(LintD5, BenchWithJsonReportIsClean)
{
    write("tests/CMakeLists.txt", "\n");
    write("bench/bench_json.cc",
          "int main() { bench::JsonReport r(\"x\"); r.write(); }\n");
    EXPECT_TRUE(lint().clean());
}

TEST_F(LintD5, FileLevelSuppressionIsHonoured)
{
    write("tests/CMakeLists.txt", "\n");
    write("bench/bench_extern.cc",
          "// lint:allow(D5: external harness emits JSON itself)\n"
          "int main() {}\n");
    Report r = lint();
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
    ASSERT_EQ(r.suppressions.size(), 1u);
    EXPECT_EQ(r.suppressions[0].rule, "D5");
    EXPECT_EQ(r.suppressions[0].reason,
              "external harness emits JSON itself");
}

TEST_F(LintD5, ReasonlessFileLevelSuppressionIsAFinding)
{
    write("tests/CMakeLists.txt", "\n");
    write("bench/bench_bad.cc",
          "// lint:allow(D5:)\n"
          "int main() {}\n");
    Report r = lint();
    ASSERT_EQ(r.findings.size(), 1u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D5");
    EXPECT_NE(r.findings[0].message.find("missing a reason"),
              std::string::npos);
}

// ---- D8: mutable shared simulator state -------------------------

TEST(LintD8, BadFixtureFiresOnAllThreeStaticKinds)
{
    Report r = lintFixture("d8_bad.snippet");
    ASSERT_EQ(r.findings.size(), 3u) << formatReport(r, true);
    EXPECT_EQ(rulesOf(r),
              (std::vector<std::string>{"D8", "D8", "D8"}));
    EXPECT_EQ(r.findings[0].line, 5); // gRetryBudget (global)
    EXPECT_NE(r.findings[0].message.find("global `gRetryBudget`"),
              std::string::npos);
    EXPECT_EQ(r.findings[1].line, 8); // Cache::hits_
    EXPECT_NE(r.findings[1].message.find("class-static `hits_`"),
              std::string::npos);
    EXPECT_EQ(r.findings[2].line, 12); // thread_local calls
    EXPECT_NE(r.findings[2].message.find("local-static `calls`"),
              std::string::npos);
}

TEST(LintD8, GoodFixtureHonoursAllow)
{
    Report r = lintFixture("d8_good.snippet");
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
    // Both annotated statics are honoured suppressions with their
    // reasons; const / constexpr / *const and plain locals do not
    // count as state at all.
    ASSERT_EQ(r.suppressions.size(), 2u);
    EXPECT_EQ(r.suppressions[0].rule, "D8");
    EXPECT_EQ(r.suppressions[0].line, 5); // gTraceDepth
    EXPECT_EQ(r.suppressions[0].reason,
              "frozen before the simulation starts");
    EXPECT_EQ(r.suppressions[1].rule, "D8");
    EXPECT_EQ(r.suppressions[1].reason,
              "scratch counter owned by the test harness, never "
              "read by the simulator");
}

TEST(LintD8, OnlySrcIsInScope)
{
    EXPECT_TRUE(
        lintFixture("d8_bad.snippet", "tests/core/test_x.cc")
            .clean());
    EXPECT_TRUE(
        lintFixture("d8_bad.snippet", "bench/bench_x.cc").clean());
}

TEST(LintD8, CollectMutableStaticsClassifiesKinds)
{
    auto statics = collectMutableStatics(
        "int gCounter = 0;\n"
        "const int kLimit = 8;\n"
        "constexpr int kWays = 2;\n"
        "struct S {\n"
        "    static int calls_;\n"
        "};\n"
        "void f() {\n"
        "    static double acc = 0;\n"
        "    int local = 0;\n"
        "    (void)local;\n"
        "}\n");
    ASSERT_EQ(statics.size(), 3u);
    EXPECT_EQ(statics[0].symbol, "gCounter");
    EXPECT_EQ(statics[0].kind, "global");
    EXPECT_EQ(statics[1].symbol, "calls_");
    EXPECT_EQ(statics[1].kind, "class-static");
    EXPECT_EQ(statics[2].symbol, "acc");
    EXPECT_EQ(statics[2].kind, "local-static");
}

// ---- D9: address-order nondeterminism ---------------------------

TEST(LintD9, BadFixtureFiresOnKeysComparatorsAndRawCompares)
{
    Report r = lintFixture("d9_bad.snippet");
    ASSERT_EQ(r.findings.size(), 4u) << formatReport(r, true);
    EXPECT_EQ(rulesOf(r),
              (std::vector<std::string>{"D9", "D9", "D9", "D9"}));
    EXPECT_EQ(r.findings[0].line, 6);  // map<const Node *, ...>
    EXPECT_EQ(r.findings[1].line, 7);  // set<shared_ptr<Node>>
    EXPECT_EQ(r.findings[2].line, 11); // comparator a < b
    EXPECT_EQ(r.findings[3].line, 14); // p < q
}

TEST(LintD9, GoodFixtureStableKeysAndAnnotationAreClean)
{
    Report r = lintFixture("d9_good.snippet");
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
    ASSERT_EQ(r.suppressions.size(), 1u);
    EXPECT_EQ(r.suppressions[0].rule, "D9");
    EXPECT_EQ(r.suppressions[0].reason,
              "membership test only; never iterated, so address "
              "order is unobservable");
}

TEST(LintD9, CollectPointerNamesRejectsMultiplication)
{
    auto names = collectPointerNames(
        "struct Q;\n"
        "Node *head;\n"
        "const Node *tail = nullptr;\n"
        "void f(Edge *e) { int x = a * b; (void)x; (void)e; }\n");
    EXPECT_EQ(names,
              (std::vector<std::string>{"e", "head", "tail"}));
}

// ---- D10: FP accumulation over unordered iteration --------------

TEST(LintD10, OrderedOkDoesNotCoverFloatAccumulation)
{
    // The key semantic pin: lint:ordered-ok claims iteration order
    // doesn't matter, but an FP sum is exactly where it does — D4
    // goes quiet, D10 still fires.
    Report r = lintFixture("d10_bad.snippet");
    ASSERT_EQ(r.findings.size(), 3u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D4");
    EXPECT_EQ(r.findings[0].line, 8); // unannotated loop
    EXPECT_EQ(r.findings[1].rule, "D10");
    EXPECT_EQ(r.findings[1].line, 9); // total +=
    EXPECT_EQ(r.findings[2].rule, "D10");
    EXPECT_EQ(r.findings[2].line, 13); // sum += under ordered-ok
    ASSERT_EQ(r.suppressions.size(), 1u);
    EXPECT_EQ(r.suppressions[0].rule, "D4");
    EXPECT_EQ(r.suppressions[0].reason, "just summing");
}

TEST(LintD10, IntegerSumsOrderedMapsAndAllowAreClean)
{
    Report r = lintFixture("d10_good.snippet");
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
    // Two ordered-ok'd walks (integer sum, epsilon-compared sum)
    // plus one explicit lint:allow(D10: ...).
    ASSERT_EQ(r.suppressions.size(), 3u);
    EXPECT_EQ(r.suppressions[0].rule, "D4");
    EXPECT_EQ(r.suppressions[1].rule, "D4");
    EXPECT_EQ(r.suppressions[2].rule, "D10");
    EXPECT_EQ(r.suppressions[2].reason,
              "result only checked against a 1e-6 tolerance, never "
              "replay-pinned");
}

TEST(LintD10, CollectFloatNamesHandlesMultiDeclarators)
{
    auto names = collectFloatNames(
        "double total = 0, mean = 0;\n"
        "float x;\n"
        "std::unordered_map<int, double> m;\n"
        "int n = 0;\n");
    EXPECT_EQ(names, (std::vector<std::string>{"mean", "total",
                                               "x"}));
}

// ---- D12: by-reference captures in scheduled lambdas ------------

TEST(LintD12, BadFixtureFiresOnBlanketAndExplicitRefCaptures)
{
    Report r = lintFixture("d12_bad.snippet");
    ASSERT_EQ(r.findings.size(), 2u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D12");
    EXPECT_EQ(r.findings[0].line, 6); // [&]
    EXPECT_EQ(r.findings[1].rule, "D12");
    EXPECT_EQ(r.findings[1].line, 9); // [&count], nested in wrap()
}

TEST(LintD12, ValueCapturesSubscriptsAndAllowAreClean)
{
    Report r = lintFixture("d12_good.snippet");
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
    ASSERT_EQ(r.suppressions.size(), 1u);
    EXPECT_EQ(r.suppressions[0].rule, "D12");
    EXPECT_EQ(r.suppressions[0].reason,
              "the runUntilIdle call below drains the queue "
              "before drained goes out of scope");
}

TEST(LintD12, OnlySrcIsInScope)
{
    EXPECT_TRUE(
        lintFixture("d12_bad.snippet", "tests/sim/test_x.cc")
            .clean());
}

// ---- D11: stats schema completeness (tree-level) ----------------

class LintD11 : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = fs::path(::testing::TempDir()) /
                ("lint_d11_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()));
        fs::remove_all(root_);
        fs::create_directories(root_ / "tests");
        fs::create_directories(root_ / "src" / "common");
        fs::create_directories(root_ / "src" / "core");
        write("tests/CMakeLists.txt", "\n");
    }

    void
    TearDown() override
    {
        fs::remove_all(root_);
    }

    void
    write(const fs::path &rel, const std::string &text)
    {
        std::ofstream out(root_ / rel, std::ios::binary);
        out << text;
    }

    Report
    lint()
    {
        return lintTree(root_.string(), {});
    }

    fs::path root_;
};

TEST_F(LintD11, UnregisteredGetIsAFinding)
{
    write("src/common/stats_schema.h",
          "DS_STAT(\"engine.queries\", \"queries issued\")\n");
    write("src/core/engine.cc",
          "void dump(StatGroup &stats) {\n"
          "    stats.get(\"engine.queries\") += 1;\n"
          "    stats.get(\"engine.misses\") += 1;\n"
          "}\n");
    Report r = lint();
    ASSERT_EQ(r.findings.size(), 1u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D11");
    EXPECT_EQ(r.findings[0].file, "src/core/engine.cc");
    EXPECT_EQ(r.findings[0].line, 3);
    EXPECT_NE(r.findings[0].message.find("engine.misses"),
              std::string::npos);
    EXPECT_NE(r.findings[0].message.find("not registered"),
              std::string::npos);
}

TEST_F(LintD11, ManualRowAgainstDsStatRegistrationIsAFinding)
{
    // The guarded-row idiom is first-class: a row printed by hand
    // must be registered as DS_STAT_ROW, not DS_STAT.
    write("src/common/stats_schema.h",
          "DS_STAT(\"array.nodes\", \"node count\")\n");
    write("src/core/coord.cc",
          "void dump(std::ostream &os, int n) {\n"
          "    os << \"array.nodes = \" << n << \"\\n\";\n"
          "}\n");
    Report r = lint();
    ASSERT_EQ(r.findings.size(), 1u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D11");
    EXPECT_EQ(r.findings[0].line, 2);
    EXPECT_NE(r.findings[0].message.find("printed as a manual row"),
              std::string::npos);
}

TEST_F(LintD11, StaleSchemaEntryIsAFindingAtItsDeclaration)
{
    write("src/common/stats_schema.h",
          "DS_STAT(\"engine.queries\", \"queries issued\")\n"
          "DS_STAT(\"engine.orphan\", \"never referenced\")\n");
    write("src/core/engine.cc",
          "void bump(StatGroup &stats) {\n"
          "    stats.get(\"engine.queries\") += 1;\n"
          "}\n");
    Report r = lint();
    ASSERT_EQ(r.findings.size(), 1u) << formatReport(r, true);
    EXPECT_EQ(r.findings[0].rule, "D11");
    EXPECT_EQ(r.findings[0].file, "src/common/stats_schema.h");
    EXPECT_EQ(r.findings[0].line, 2);
    EXPECT_NE(r.findings[0].message.find("stale schema entry"),
              std::string::npos);
}

TEST_F(LintD11, RegisteredGetAndGuardedRowAreClean)
{
    // A dynamically-composed name (ternary between two literals)
    // still counts as a reference: the stale scan is a substring
    // match over literal-preserving strips.
    write("src/common/stats_schema.h",
          "DS_STAT(\"sched.kills\", \"events cancelled\")\n"
          "DS_STAT(\"sched.drops\", \"events dropped\")\n"
          "DS_STAT_ROW(\"array.scrub.pages\", \"when scrubbing\")\n");
    write("src/core/engine.cc",
          "void dump(StatGroup &stats, std::ostream &os, bool k,\n"
          "          long pages) {\n"
          "    stats.get(k ? \"sched.kills\" : \"sched.drops\")++;\n"
          "    if (pages)\n"
          "        os << \"array.scrub.pages = \" << pages;\n"
          "}\n");
    Report r = lint();
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
}

TEST_F(LintD11, StaleEntryCanBeSuppressedWithAReason)
{
    write("src/common/stats_schema.h",
          "DS_STAT(\"engine.queries\", \"queries issued\")\n"
          "// lint:allow(D11: reserved for the recovery PR)\n"
          "DS_STAT(\"repair.future\", \"not wired up yet\")\n");
    write("src/core/engine.cc",
          "void bump(StatGroup &stats) {\n"
          "    stats.get(\"engine.queries\") += 1;\n"
          "}\n");
    Report r = lint();
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
    ASSERT_EQ(r.suppressions.size(), 1u);
    EXPECT_EQ(r.suppressions[0].rule, "D11");
    EXPECT_EQ(r.suppressions[0].reason,
              "reserved for the recovery PR");
}

// ---- JSON report ------------------------------------------------

TEST(LintJson, ReportCarriesCountsAndSuppressions)
{
    Report r = lintFixture("d8_good.snippet");
    std::string json = formatJson(r);
    EXPECT_NE(json.find("\"findings\": 0"), std::string::npos);
    EXPECT_NE(json.find(
                  "\"D8\": {\"findings\": 0, \"suppressions\": 2}"),
              std::string::npos);
    EXPECT_NE(json.find("\"reason\": \"frozen before the simulation "
                        "starts\""),
              std::string::npos);
}

// ---- The real tree stays clean ----------------------------------

TEST(LintTree, RepositoryHasNoUnsuppressedFindings)
{
    // The same invariant the lint_tree ctest pins, but from inside
    // the test suite: zero findings, every suppression reasoned.
    Report r = lintTree(DEEPSTORE_LINT_REPO_ROOT, {});
    EXPECT_TRUE(r.clean()) << formatReport(r, true);
    for (const auto &s : r.suppressions)
        EXPECT_FALSE(s.reason.empty())
            << s.file << ":" << s.line;
}

} // namespace
