// Proves every tdc_lint rule fires (exact rule id + line) on its violating
// fixture and stays silent on the conforming one, plus the path-scoping and
// inline-suppression contracts. Fixture sources live in
// tests/lint_fixtures/; they are data, not compiled code, and lint_file()
// is pure, so each fixture is linted under a fabricated project-relative
// path that puts it in the scope the rule guards.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tdc_lint/lint.h"

namespace tdc::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(TDC_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

using RuleLine = std::pair<std::string, int>;

std::vector<RuleLine> rule_lines(const std::vector<Finding>& findings) {
  std::vector<RuleLine> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.rule, f.line);
  return out;
}

TEST(LintCatalogueTest, AllTenRulesAreRegistered) {
  const std::vector<std::string> expected = {
      "determinism",        "iostream-print",     "naked-throw",
      "unordered-iteration", "include-hygiene",    "memory-order-audit",
      "blocking-under-lock", "alloc-before-validate", "detached-thread",
      "stale-suppression"};
  EXPECT_EQ(rule_ids(), expected);
}

// ---------------------------------------------------------------- determinism

TEST(LintDeterminismTest, ViolatingFixtureFiresOnEveryBannedRead) {
  const auto findings =
      lint_file("src/lzw/determinism_bad.cpp", read_fixture("determinism_bad.cpp"));
  const std::vector<RuleLine> expected = {{"determinism", 8},
                                          {"determinism", 9},
                                          {"determinism", 10},
                                          {"determinism", 14},
                                          {"determinism", 15}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintDeterminismTest, ConformingFixtureIsClean) {
  const auto findings =
      lint_file("src/lzw/determinism_good.cpp", read_fixture("determinism_good.cpp"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

TEST(LintDeterminismTest, RuleIsScopedToDeterministicPaths) {
  // The same violating content is legal in bench/ — entropy is only banned
  // where output must be bit-reproducible.
  const auto findings =
      lint_file("bench/determinism_bad.cpp", read_fixture("determinism_bad.cpp"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

// ------------------------------------------------------------- iostream-print

TEST(LintIostreamTest, ViolatingFixtureFiresOnEveryConsoleWrite) {
  const auto findings =
      lint_file("src/codec/iostream_bad.cpp", read_fixture("iostream_bad.cpp"));
  const std::vector<RuleLine> expected = {{"iostream-print", 3},
                                          {"iostream-print", 8},
                                          {"iostream-print", 9},
                                          {"iostream-print", 10},
                                          {"iostream-print", 11}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintIostreamTest, ConformingFixtureIsClean) {
  // Covers snprintf formatting, fprintf to a non-console FILE*, and a
  // suppressed crash-path stderr write.
  const auto findings =
      lint_file("src/codec/iostream_good.cpp", read_fixture("iostream_good.cpp"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

TEST(LintIostreamTest, ExamplesAndBenchMayPrint) {
  const auto findings =
      lint_file("examples/iostream_bad.cpp", read_fixture("iostream_bad.cpp"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

// ---------------------------------------------------------------- naked-throw

TEST(LintThrowTest, ViolatingFixtureFiresOnRawExceptions) {
  const auto findings =
      lint_file("src/hw/naked_throw_bad.cpp", read_fixture("naked_throw_bad.cpp"));
  const std::vector<RuleLine> expected = {{"naked-throw", 7}, {"naked-throw", 8}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintThrowTest, ConformingFixtureIsClean) {
  const auto findings =
      lint_file("src/hw/naked_throw_good.cpp", read_fixture("naked_throw_good.cpp"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

// -------------------------------------------------------- unordered-iteration

TEST(LintUnorderedTest, ViolatingFixtureFiresOnRangeFor) {
  const auto findings =
      lint_file("src/engine/unordered_bad.cpp", read_fixture("unordered_bad.cpp"));
  const std::vector<RuleLine> expected = {{"unordered-iteration", 10}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintUnorderedTest, ConformingFixtureIsClean) {
  const auto findings =
      lint_file("src/engine/unordered_good.cpp", read_fixture("unordered_good.cpp"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

// ------------------------------------------------------------ include-hygiene

TEST(LintIncludeTest, ViolatingFixtureFiresOnGuardAndEveryBadInclude) {
  const auto findings =
      lint_file("src/lzw/include_bad.h", read_fixture("include_bad.h"));
  const std::vector<RuleLine> expected = {{"include-hygiene", 2},
                                          {"include-hygiene", 3},
                                          {"include-hygiene", 4},
                                          {"include-hygiene", 5}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintIncludeTest, ConformingFixtureIsClean) {
  const auto findings =
      lint_file("src/lzw/include_good.h", read_fixture("include_good.h"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

// --------------------------------------------------------- memory-order-audit

TEST(LintMemoryOrderTest, ViolatingFixtureFiresOnDefaultsAndBareDecl) {
  const auto findings = lint_file("src/obs/memory_order_bad.cpp",
                                  read_fixture("memory_order_bad.cpp"));
  // 8: declaration without tdc-sync; 10/11: implicit seq_cst fetch_add and
  // load; 13: compare_exchange with only a success order.
  const std::vector<RuleLine> expected = {{"memory-order-audit", 8},
                                          {"memory-order-audit", 10},
                                          {"memory-order-audit", 11},
                                          {"memory-order-audit", 13}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintMemoryOrderTest, ConformingFixtureIsClean) {
  const auto findings = lint_file("src/obs/memory_order_good.cpp",
                                  read_fixture("memory_order_good.cpp"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

TEST(LintMemoryOrderTest, SyncCommentCoversOnlyAdjacentDeclarations) {
  // The first declaration sits under the tdc-sync comment; the second is
  // separated from it by a code line, so the walk-up stops short.
  const std::string content =
      "#include <atomic>\n"
      "// tdc-sync: relaxed statistic.\n"
      "std::atomic<int> covered{0};\n"
      "std::atomic<int> uncovered{0};\n";
  const auto findings = lint_file("src/obs/x.cpp", content);
  const std::vector<RuleLine> expected = {{"memory-order-audit", 4}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

// -------------------------------------------------------- blocking-under-lock

TEST(LintBlockingTest, ViolatingFixtureFiresOnIoAndNestedWait) {
  const auto findings = lint_file("src/service/blocking_under_lock_bad.cpp",
                                  read_fixture("blocking_under_lock_bad.cpp"));
  // 17: raw write() under the guard; 18: project I/O wrapper under the
  // guard; 20: condition wait with a second lock scope still open.
  const std::vector<RuleLine> expected = {{"blocking-under-lock", 17},
                                          {"blocking-under-lock", 18},
                                          {"blocking-under-lock", 20}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintBlockingTest, ConformingFixtureIsClean) {
  const auto findings = lint_file("src/service/blocking_under_lock_good.cpp",
                                  read_fixture("blocking_under_lock_good.cpp"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

// ------------------------------------------------------ alloc-before-validate

TEST(LintAllocTest, ViolatingFixtureFiresOnResizeAndArrayNew) {
  const auto findings = lint_file("src/codec/alloc_before_validate_bad.cpp",
                                  read_fixture("alloc_before_validate_bad.cpp"));
  const std::vector<RuleLine> expected = {{"alloc-before-validate", 10},
                                          {"alloc-before-validate", 11}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintAllocTest, ConformingFixtureIsClean) {
  const auto findings = lint_file("src/codec/alloc_before_validate_good.cpp",
                                  read_fixture("alloc_before_validate_good.cpp"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

TEST(LintAllocTest, ContainerParserTreeIsWireFacing) {
  // src/lzw/ parses downloaded containers, so the rule covers it too.
  const auto findings = lint_file("src/lzw/alloc_before_validate_bad.cpp",
                                  read_fixture("alloc_before_validate_bad.cpp"));
  const std::vector<RuleLine> expected = {{"alloc-before-validate", 10},
                                          {"alloc-before-validate", 11}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintAllocTest, RuleIsScopedToWireFacingTrees) {
  // The same unvalidated sizing is legal outside src/service, src/codec and
  // src/lzw — only wire-facing decode paths take attacker-controlled lengths.
  const auto findings = lint_file("src/engine/alloc_before_validate_bad.cpp",
                                  read_fixture("alloc_before_validate_bad.cpp"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

// ------------------------------------------------------------ detached-thread

TEST(LintDetachTest, ViolatingFixtureFiresOnDetach) {
  const auto findings = lint_file("src/service/detached_thread_bad.cpp",
                                  read_fixture("detached_thread_bad.cpp"));
  const std::vector<RuleLine> expected = {{"detached-thread", 8}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintDetachTest, ConformingFixtureIsClean) {
  const auto findings = lint_file("src/service/detached_thread_good.cpp",
                                  read_fixture("detached_thread_good.cpp"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

// ---------------------------------------------------------- stale-suppression

TEST(LintStaleTest, ViolatingFixtureFiresOnUnusedAndUnknown) {
  const auto findings = lint_file("src/service/stale_suppression_bad.cpp",
                                  read_fixture("stale_suppression_bad.cpp"));
  // 4: known rule that never fired; 7: misspelled rule id.
  const std::vector<RuleLine> expected = {{"stale-suppression", 4},
                                          {"stale-suppression", 7}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintStaleTest, ConformingFixtureIsClean) {
  const auto findings = lint_file("src/service/stale_suppression_good.cpp",
                                  read_fixture("stale_suppression_good.cpp"));
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

TEST(LintStaleTest, EscapeHatchKeepsADeliberateSuppression) {
  // allow(stale-suppression) on the same comment self-suppresses the stale
  // report — the sanctioned way to keep a deliberately speculative allow.
  const std::string content =
      "// tdc-lint: allow(determinism, stale-suppression)\n"
      "int fixture = 1;\n";
  const auto findings = lint_file("src/service/x.cpp", content);
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

// --------------------------------------------------- suppressions + reporting

TEST(LintSuppressionTest, AllowCoversItsOwnLineAndTheNext) {
  const std::string content =
      "// tdc-lint: allow(determinism)\n"
      "int a = rand();\n"
      "int b = rand();\n";
  const auto findings = lint_file("src/lzw/x.cpp", content);
  const std::vector<RuleLine> expected = {{"determinism", 3}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintSuppressionTest, AllowListsSeveralRules) {
  const std::string content =
      "#include <iostream>  // tdc-lint: allow(iostream-print, determinism)\n"
      "int a = rand();\n";
  const auto findings = lint_file("src/lzw/x.cpp", content);
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

TEST(LintSuppressionTest, AllowForOneRuleDoesNotCoverAnother) {
  // The mismatched allow() both fails to cover the determinism hit and is
  // itself reported as stale, since it never fired.
  const std::string content =
      "// tdc-lint: allow(iostream-print)\n"
      "int a = rand();\n";
  const auto findings = lint_file("src/lzw/x.cpp", content);
  const std::vector<RuleLine> expected = {{"stale-suppression", 1},
                                          {"determinism", 2}};
  EXPECT_EQ(rule_lines(findings), expected) << format_report(findings);
}

TEST(LintScrubTest, CommentsAndStringsNeverFire) {
  const std::string content =
      "// rand() time() std::cout in a comment\n"
      "/* throw std::runtime_error(\"x\"); */\n"
      "const char* s = \"rand() %d printf stderr\";\n"
      "const char* r = R\"(std::random_device rd;)\";\n";
  const auto findings = lint_file("src/lzw/x.cpp", content);
  EXPECT_TRUE(findings.empty()) << format_report(findings);
}

TEST(LintReportTest, FormatsPathLineRuleMessage) {
  const std::vector<Finding> findings = {
      {"src/lzw/x.cpp", 12, "determinism", "call to 'rand()'"}};
  EXPECT_EQ(format_report(findings), "src/lzw/x.cpp:12: [determinism] call to 'rand()'\n");
}

}  // namespace
}  // namespace tdc::lint
