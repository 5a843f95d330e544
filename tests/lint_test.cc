// Tests for tools/lint: each determinism-contract rule against known-bad and
// known-clean snippets, the LINT-ALLOW suppression contract, and the
// diagnostic format the ctest output promises.
#include "lint/lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace coldstart::lint {
namespace {

Result Lint(const std::string& path, const std::string& content) {
  return LintFiles({FileInput{path, content}});
}

std::vector<std::string> RuleNames(const Result& r) {
  std::vector<std::string> names;
  names.reserve(r.diagnostics.size());
  for (const Diagnostic& d : r.diagnostics) {
    names.push_back(d.rule);
  }
  return names;
}

TEST(LintRegistry, HasAllSixRules) {
  std::vector<std::string> names;
  for (const RuleInfo& r : Rules()) {
    names.push_back(r.name);
  }
  const std::vector<std::string> expected = {"wall-clock",  "ambient-rng",
                                             "unordered-iter", "serde-pair",
                                             "policy-hooks", "stale-allow"};
  for (const std::string& rule : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), rule), names.end())
        << "missing rule " << rule;
  }
}

// --- wall-clock -----------------------------------------------------------

TEST(WallClock, FlagsSystemClockCall) {
  const Result r = Lint("src/platform/bad.cc",
                        "void F() {\n"
                        "  auto t = std::chrono::system_clock::now();\n"
                        "}\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "wall-clock");
  EXPECT_EQ(r.diagnostics[0].line, 2);
  EXPECT_EQ(r.diagnostics[0].file, "src/platform/bad.cc");
}

TEST(WallClock, FlagsTimeAndGettimeofday) {
  const Result r = Lint("src/core/bad.cc",
                        "void F() {\n"
                        "  time_t t = time(nullptr);\n"
                        "  gettimeofday(&tv, nullptr);\n"
                        "}\n");
  EXPECT_EQ(RuleNames(r), (std::vector<std::string>{"wall-clock", "wall-clock"}));
}

TEST(WallClock, IgnoresCommentsAndStrings) {
  const Result r = Lint("src/core/ok.cc",
                        "// calls system_clock::now() — just a comment\n"
                        "const char* kMsg = \"time(nullptr) in a string\";\n"
                        "/* gettimeofday too */\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(WallClock, SimTimeIdentifiersAreClean) {
  // Identifiers merely containing "time" must not trip the token scan.
  const Result r = Lint("src/core/ok.cc",
                        "SimTime OnTime(SimTime timestamp) {\n"
                        "  return timestamp + runtime_us;\n"
                        "}\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(WallClock, SuppressedByInlineAllow) {
  const Result r =
      Lint("src/core/timed.cc",
           "void F() {\n"
           "  // LINT-ALLOW(wall-clock): diagnostics-only wall timing\n"
           "  auto t = std::chrono::steady_clock::now();\n"
           "}\n");
  EXPECT_TRUE(r.diagnostics.empty());
  ASSERT_EQ(r.allowed.size(), 1u);
  EXPECT_EQ(r.allowed[0].rule, "wall-clock");
  EXPECT_EQ(r.allowed[0].reason, "diagnostics-only wall timing");
}

// --- ambient-rng ----------------------------------------------------------

TEST(AmbientRng, FlagsRandAndRandomDevice) {
  const Result r = Lint("src/workload/bad.cc",
                        "int F() {\n"
                        "  std::random_device rd;\n"
                        "  return std::rand() % 7;\n"
                        "}\n");
  EXPECT_EQ(RuleNames(r),
            (std::vector<std::string>{"ambient-rng", "ambient-rng"}));
}

TEST(AmbientRng, FlagsUnseededEngine) {
  const Result r = Lint("src/policy/bad.cc", "std::mt19937_64 gen;\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "ambient-rng");
}

TEST(AmbientRng, RngImplementationDirIsExempt) {
  const Result r = Lint("src/common/rng.h",
                        "// the one place engine machinery is allowed\n"
                        "inline uint64_t SplitMix64(uint64_t* s) { return *s; }\n"
                        "std::mt19937_64 reference_engine;\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

// --- unordered-iter -------------------------------------------------------

TEST(UnorderedIter, FlagsRangeForInOutputAffectingDir) {
  const Result r = Lint("src/analysis/bad.cc",
                        "void F() {\n"
                        "  std::unordered_map<uint64_t, int> counts;\n"
                        "  for (const auto& [k, v] : counts) {\n"
                        "    Emit(k, v);\n"
                        "  }\n"
                        "}\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "unordered-iter");
  EXPECT_EQ(r.diagnostics[0].line, 3);
}

TEST(UnorderedIter, FlagsExplicitBeginIteration) {
  const Result r = Lint("src/trace/bad.cc",
                        "std::unordered_set<int> live;\n"
                        "void F() {\n"
                        "  for (auto it = live.begin(); it != live.end(); ++it) {}\n"
                        "}\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "unordered-iter");
}

TEST(UnorderedIter, FindEndComparisonIsClean) {
  // it != m.end() after find() leaks no order; only begin-family iteration
  // entry points count.
  const Result r = Lint("src/policy/ok.cc",
                        "std::unordered_map<int, int> m;\n"
                        "bool F(int k) { return m.find(k) != m.end(); }\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(UnorderedIter, NonOutputAffectingDirIsClean) {
  const Result r = Lint("src/stats/ok.cc",
                        "std::unordered_map<int, int> m;\n"
                        "void F() {\n"
                        "  for (const auto& kv : m) { Use(kv); }\n"
                        "}\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(UnorderedIter, MemberDeclaredInPairedHeaderFlagsAtCcSite) {
  const Result r = LintFiles(
      {FileInput{"src/policy/p.h",
                 "class P {\n"
                 "  std::unordered_map<uint64_t, int> history_;\n"
                 "};\n"},
       FileInput{"src/policy/p.cc",
                 "void P::Dump() {\n"
                 "  for (const auto& [k, v] : history_) { Emit(k, v); }\n"
                 "}\n"}});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].file, "src/policy/p.cc");
  EXPECT_EQ(r.diagnostics[0].line, 2);
  EXPECT_EQ(r.diagnostics[0].rule, "unordered-iter");
}

TEST(UnorderedIter, SuppressionIsRecorded) {
  const Result r =
      Lint("src/analysis/ok.cc",
           "std::unordered_map<int, int> counts;\n"
           "void F() {\n"
           "  // LINT-ALLOW(unordered-iter): fold is commutative and sorted on Seal\n"
           "  for (const auto& kv : counts) { Add(kv); }\n"
           "}\n");
  EXPECT_TRUE(r.diagnostics.empty());
  ASSERT_EQ(r.allowed.size(), 1u);
  EXPECT_EQ(r.allowed[0].rule, "unordered-iter");
}

// --- serde-pair -----------------------------------------------------------

constexpr const char* kSymmetricPair =
    "bool T::SaveState(std::string* out) const {\n"
    "  ByteWriter w;\n"
    "  w.U64(n_);\n"
    "  w.I64(t_);\n"
    "  w.F64(x_);\n"
    "  *out = w.Take();\n"
    "  return true;\n"
    "}\n"
    "bool T::RestoreState(std::string_view blob) {\n"
    "  ByteReader r(blob);\n"
    "  n_ = r.U64();\n"
    "  t_ = r.I64();\n"
    "  x_ = r.F64();\n"
    "  return true;\n"
    "}\n";

TEST(SerdePair, SymmetricPairIsClean) {
  EXPECT_TRUE(Lint("src/core/ok.cc", kSymmetricPair).diagnostics.empty());
}

TEST(SerdePair, MissingRestoreFieldIsFlagged) {
  // The classic bug: a field added to Save but not Restore.
  const Result r = Lint("src/core/bad.cc",
                        "bool T::SaveState(std::string* out) const {\n"
                        "  ByteWriter w;\n"
                        "  w.U64(n_);\n"
                        "  w.I64(t_);\n"
                        "  return true;\n"
                        "}\n"
                        "bool T::RestoreState(std::string_view blob) {\n"
                        "  ByteReader r(blob);\n"
                        "  n_ = r.U64();\n"
                        "  return true;\n"
                        "}\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "serde-pair");
  EXPECT_EQ(r.diagnostics[0].line, 1);
  EXPECT_NE(r.diagnostics[0].message.find("[U64,I64]"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("[U64]"), std::string::npos);
}

TEST(SerdePair, TypeMismatchIsFlagged) {
  const Result r = Lint("src/core/bad.cc",
                        "void T::SaveState(ByteWriter& w) const {\n"
                        "  w.U32(n_);\n"
                        "}\n"
                        "void T::RestoreState(ByteReader& r) {\n"
                        "  n_ = r.U64();\n"
                        "}\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "serde-pair");
  EXPECT_NE(r.diagnostics[0].message.find("writes U32"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("reads U64"), std::string::npos);
}

TEST(SerdePair, WriteReadPrefixesPairToo) {
  const Result r = Lint("src/checkpoint/bad.cc",
                        "void WriteFrame(ByteWriter& w) {\n"
                        "  w.U64(magic);\n"
                        "  w.U32(crc);\n"
                        "}\n"
                        "void ReadFrame(ByteReader& r) {\n"
                        "  magic = r.U64();\n"
                        "}\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "serde-pair");
}

TEST(SerdePair, UnpairedSaveWithOpsIsFlagged) {
  const Result r = Lint("src/core/bad.cc",
                        "bool T::SaveState(std::string* out) const {\n"
                        "  ByteWriter w;\n"
                        "  w.U64(n_);\n"
                        "  *out = w.Take();\n"
                        "  return true;\n"
                        "}\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "serde-pair");
  EXPECT_NE(r.diagnostics[0].message.find("no matching RestoreState"),
            std::string::npos);
}

TEST(SerdePair, HelperDelegationIsClean) {
  // Pairs whose branches live in delegated helpers have no direct ops; the
  // checker must not invent an asymmetry for them.
  const Result r = Lint("src/core/ok.cc",
                        "bool T::SaveState(std::string* out) const {\n"
                        "  ByteWriter w;\n"
                        "  SaveInner(w);\n"
                        "  *out = w.Take();\n"
                        "  return true;\n"
                        "}\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(SerdePair, CallsInsideOtherFunctionsAreNotDefinitions) {
  // RestoreEvent(...) invocations (with lambda bodies) inside another
  // function must not register as Restore* definitions.
  const Result r = Lint("src/platform/ok.cc",
                        "void T::Rebuild(ByteReader& r) {\n"
                        "  sim_.RestoreEvent(t, s, [this] {\n"
                        "    Fire();\n"
                        "  });\n"
                        "}\n");
  for (const Diagnostic& d : r.diagnostics) {
    EXPECT_NE(d.rule, "serde-pair") << d.message;
  }
}

// --- policy-hooks ---------------------------------------------------------

TEST(PolicyHooks, StatefulPolicyWithoutHooksIsFlagged) {
  const Result r = Lint("src/policy/bad.h",
                        "class MyPolicy : public platform::PlatformPolicy {\n"
                        " public:\n"
                        "  void OnArrival(const F& spec, SimTime now) override;\n"
                        " private:\n"
                        "  std::map<uint64_t, int> history_;\n"
                        "};\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "policy-hooks");
  EXPECT_EQ(r.diagnostics[0].line, 1);
  EXPECT_NE(r.diagnostics[0].message.find("history_"), std::string::npos);
}

TEST(PolicyHooks, CompletePolicyIsClean) {
  const Result r =
      Lint("src/policy/ok.h",
           "class MyPolicy : public platform::PlatformPolicy {\n"
           " public:\n"
           "  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const "
           "override;\n"
           "  bool SavePolicyState(std::string* out) const override;\n"
           "  bool RestorePolicyState(std::string_view blob) override;\n"
           " private:\n"
           "  std::map<uint64_t, int> history_;\n"
           "};\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(PolicyHooks, ConfigOnlyPolicyIsClean) {
  const Result r = Lint("src/policy/ok.h",
                        "class MyPolicy : public platform::PlatformPolicy {\n"
                        " public:\n"
                        "  SimDuration KeepAliveFor(const F&, SimTime) override;\n"
                        " private:\n"
                        "  Options options_;\n"
                        "};\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(PolicyHooks, PolicyMissingOnlySerdeHooksIsFlagged) {
  const Result r =
      Lint("src/policy/bad.h",
           "class MyPolicy : public platform::PlatformPolicy {\n"
           " public:\n"
           "  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const "
           "override;\n"
           " private:\n"
           "  std::map<uint64_t, int> history_;\n"
           "};\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "policy-hooks");
  EXPECT_NE(r.diagnostics[0].message.find("SavePolicyState/RestorePolicyState"),
            std::string::npos);
  EXPECT_EQ(r.diagnostics[0].message.find("CloneForShard"), std::string::npos);
}

TEST(PolicyHooks, AllowOnClassLineSuppresses) {
  const Result r =
      Lint("src/policy/ok.h",
           "// LINT-ALLOW(policy-hooks): not region-local; never sharded\n"
           "class MyPolicy : public platform::PlatformPolicy {\n"
           "  int64_t offloads_ = 0;\n"
           "};\n");
  EXPECT_TRUE(r.diagnostics.empty());
  ASSERT_EQ(r.allowed.size(), 1u);
  EXPECT_EQ(r.allowed[0].rule, "policy-hooks");
}

// --- stale-allow ----------------------------------------------------------

TEST(StaleAllow, AllowOnCleanLineIsFlagged) {
  const Result r = Lint("src/core/ok.cc",
                        "// LINT-ALLOW(wall-clock): this line stopped needing it\n"
                        "int x = 1;\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "stale-allow");
  EXPECT_EQ(r.diagnostics[0].line, 1);
  EXPECT_NE(r.diagnostics[0].message.find("stale"), std::string::npos);
}

TEST(StaleAllow, UnknownRuleIsFlagged) {
  const Result r = Lint("src/core/ok.cc",
                        "// LINT-ALLOW(no-such-rule): whatever\n"
                        "int x = 1;\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "stale-allow");
  EXPECT_NE(r.diagnostics[0].message.find("no-such-rule"), std::string::npos);
}

TEST(StaleAllow, MalformedAllowIsFlagged) {
  const Result r = Lint("src/core/ok.cc",
                        "// LINT-ALLOW wall-clock — missing parens and reason\n"
                        "int x = 1;\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "stale-allow");
  EXPECT_NE(r.diagnostics[0].message.find("malformed"), std::string::npos);
}

TEST(StaleAllow, AllowWithoutReasonIsMalformed) {
  const Result r = Lint("src/core/bad.cc",
                        "// LINT-ALLOW(wall-clock):\n"
                        "auto t = std::chrono::steady_clock::now();\n");
  // The annotation is rejected, so the wall-clock diagnostic fires too.
  const std::vector<std::string> rules = RuleNames(r);
  EXPECT_NE(std::find(rules.begin(), rules.end(), "stale-allow"), rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "wall-clock"), rules.end());
}

// --- output format --------------------------------------------------------

TEST(Format, PathLineRuleMessage) {
  Diagnostic d;
  d.file = "src/core/x.cc";
  d.line = 42;
  d.rule = "wall-clock";
  d.message = "boom";
  EXPECT_EQ(FormatDiagnostic(d), "src/core/x.cc:42: [wall-clock] boom");
}

TEST(Format, DiagnosticsAreSortedByFileAndLine) {
  const Result r = LintFiles(
      {FileInput{"src/trace/b.cc", "time_t t = time(nullptr);\n"},
       FileInput{"src/analysis/a.cc",
                 "int x = std::rand();\nint y = std::rand();\n"}});
  ASSERT_EQ(r.diagnostics.size(), 3u);
  EXPECT_EQ(r.diagnostics[0].file, "src/analysis/a.cc");
  EXPECT_EQ(r.diagnostics[0].line, 1);
  EXPECT_EQ(r.diagnostics[1].line, 2);
  EXPECT_EQ(r.diagnostics[2].file, "src/trace/b.cc");
}

}  // namespace
}  // namespace coldstart::lint
