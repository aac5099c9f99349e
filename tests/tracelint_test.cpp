//===- tests/tracelint_test.cpp - TraceLint/spec rule tests ---------------===//
//
// Per-rule unit tests for the static analyses: every TraceLint rule id
// fires on a handcrafted bad script with the correct line (and column for
// syntax rules), every parseMatrixSpec rule fires on a handcrafted bad
// matrix spec, analysis is exhaustive (all defects reported, not just the
// first), and the lifetime IR and static predictions are exact on
// hand-computed examples. Rule ids are contract: a rename here is a
// breaking change for CI annotations and downstream automation.
//
//===----------------------------------------------------------------------===//

#include "analyze/LintReport.h"
#include "analyze/TraceLint.h"
#include "core/MatrixRunner.h"
#include "support/SpecParse.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace allocsim;

namespace {

/// Lints a script text; returns the engine (findings) via out-param and the
/// parsed events.
std::vector<LocatedAllocEvent> lintText(const std::string &Text,
                                        DiagEngine &Diags) {
  std::istringstream IS(Text);
  return lintTraceScript(IS, Diags);
}

/// Parses a matrix spec for its findings alone.
void lintSpec(const std::string &Text, DiagEngine &Diags) {
  MatrixSpec Spec;
  parseMatrixSpec(Text, Spec, Diags);
}

/// True if a finding with \p Rule exists at \p Line (0 = any line).
bool hasRule(const DiagEngine &Diags, const std::string &Rule,
             uint32_t Line = 0, uint32_t Column = 0) {
  for (const Diag &D : Diags.diags()) {
    if (D.Rule != Rule)
      continue;
    if (Line != 0 && D.Loc.Line != Line)
      continue;
    if (Column != 0 && D.Loc.Column != Column)
      continue;
    return true;
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Syntax rules
//===----------------------------------------------------------------------===//

TEST(TraceLintSyntaxTest, UnknownTag) {
  DiagEngine Diags;
  lintText("m 1 16\nq 1\nf 1\n", Diags);
  EXPECT_TRUE(hasRule(Diags, "trace-unknown-tag", 2, 1));
  EXPECT_EQ(Diags.errorCount(), 1u);
}

TEST(TraceLintSyntaxTest, TruncatedRecord) {
  DiagEngine Diags;
  lintText("m 1\n", Diags);
  EXPECT_TRUE(hasRule(Diags, "trace-truncated-record", 1, 1));
}

TEST(TraceLintSyntaxTest, BadNumber) {
  DiagEngine Diags;
  lintText("m one 16\nm 2 -4\n", Diags);
  EXPECT_TRUE(hasRule(Diags, "trace-bad-number", 1, 3));
  EXPECT_TRUE(hasRule(Diags, "trace-bad-number", 2, 5));
}

TEST(TraceLintSyntaxTest, SizeOverflow) {
  // Sizes above 2^32-4 would wrap the driver's word rounding.
  DiagEngine Diags;
  lintText("m 1 4294967293\n", Diags);
  EXPECT_TRUE(hasRule(Diags, "trace-size-overflow", 1, 5));
  DiagEngine Ok;
  std::vector<LocatedAllocEvent> Events = lintText("m 1 4294967292\n", Ok);
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_FALSE(hasRule(Ok, "trace-size-overflow"));
}

TEST(TraceLintSyntaxTest, BadAccessMode) {
  DiagEngine Diags;
  lintText("m 1 16\nt 1 2 x\n", Diags);
  EXPECT_TRUE(hasRule(Diags, "trace-bad-access-mode", 2, 7));
}

TEST(TraceLintSyntaxTest, TrailingJunk) {
  DiagEngine Diags;
  std::vector<LocatedAllocEvent> Events = lintText("m 1 16 extra\n", Diags);
  EXPECT_TRUE(hasRule(Diags, "trace-trailing-junk", 1, 8));
  // The record itself was complete, so the event still parses.
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Event.Kind, AllocEventKind::Malloc);
}

TEST(TraceLintSyntaxTest, BlankLinesAndColumnsTracked) {
  DiagEngine Diags;
  std::vector<LocatedAllocEvent> Events =
      lintText("\nm 1 16\n\n  t 1 2 r\nf 1\n", Diags);
  EXPECT_TRUE(Diags.clean());
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].Loc, (SourceLoc{2, 1}));
  EXPECT_EQ(Events[1].Loc, (SourceLoc{4, 3})); // indented record
  EXPECT_EQ(Events[2].Loc, (SourceLoc{5, 1}));
}

//===----------------------------------------------------------------------===//
// Semantic rules
//===----------------------------------------------------------------------===//

TEST(TraceLintSemanticTest, DoubleFree) {
  DiagEngine Diags;
  lintText("m 1 16\nf 1\nf 1\n", Diags);
  EXPECT_TRUE(hasRule(Diags, "trace-double-free", 3));
  EXPECT_EQ(Diags.errorCount(), 1u);
}

TEST(TraceLintSemanticTest, UseAfterFreeTouch) {
  DiagEngine Diags;
  lintText("m 1 16\nf 1\nt 1 4 w\n", Diags);
  EXPECT_TRUE(hasRule(Diags, "trace-touch-dead", 3));
}

TEST(TraceLintSemanticTest, UnknownIds) {
  DiagEngine Diags;
  lintText("f 7\nt 9 1 r\n", Diags);
  EXPECT_TRUE(hasRule(Diags, "trace-free-unknown", 1));
  EXPECT_TRUE(hasRule(Diags, "trace-touch-unknown", 2));
}

TEST(TraceLintSemanticTest, DoubleMalloc) {
  DiagEngine Diags;
  lintText("m 1 16\nm 1 32\nf 1\n", Diags);
  EXPECT_TRUE(hasRule(Diags, "trace-double-malloc", 2));
}

TEST(TraceLintSemanticTest, ZeroSize) {
  DiagEngine Diags;
  lintText("m 1 0\nf 1\n", Diags);
  EXPECT_TRUE(hasRule(Diags, "trace-zero-size", 1));
}

TEST(TraceLintSemanticTest, LeakReportedAtMalloc) {
  DiagEngine Diags;
  lintText("m 1 16\nm 2 32\nf 1\n", Diags);
  EXPECT_EQ(Diags.errorCount(), 0u);
  EXPECT_TRUE(hasRule(Diags, "trace-leak", 2));
  EXPECT_FALSE(hasRule(Diags, "trace-leak", 1));
}

TEST(TraceLintSemanticTest, EmptyTouchWarns) {
  DiagEngine Diags;
  lintText("m 1 16\nt 1 0 r\ns 0 w\nf 1\n", Diags);
  EXPECT_EQ(Diags.errorCount(), 0u);
  EXPECT_TRUE(hasRule(Diags, "trace-empty-touch", 2));
  EXPECT_TRUE(hasRule(Diags, "trace-empty-touch", 3));
}

TEST(TraceLintSemanticTest, ReportsEveryDefectNotJustTheFirst) {
  DiagEngine Diags;
  lintText("m 1 0\nf 1\nf 1\nt 1 2 r\nf 9\nm 3 8\n", Diags);
  EXPECT_TRUE(hasRule(Diags, "trace-zero-size", 1));
  EXPECT_TRUE(hasRule(Diags, "trace-double-free", 3));
  EXPECT_TRUE(hasRule(Diags, "trace-touch-dead", 4));
  EXPECT_TRUE(hasRule(Diags, "trace-free-unknown", 5));
  EXPECT_TRUE(hasRule(Diags, "trace-leak", 6));
  EXPECT_EQ(Diags.errorCount(), 4u);
  EXPECT_EQ(Diags.warningCount(), 1u);
}

TEST(TraceLintSemanticTest, BoolWrapperIgnoresWarnings) {
  // Leaks and empty touches are warnings; the replay engines run such
  // scripts fine, so the bool validation wrapper must keep accepting them.
  std::vector<AllocEvent> Leaky = {AllocEvent::makeMalloc(1, 16)};
  EXPECT_TRUE(validateAllocEvents(Leaky));
  std::vector<AllocEvent> Bad = {AllocEvent::makeFree(1)};
  std::string Why;
  EXPECT_FALSE(validateAllocEvents(Bad, &Why));
  EXPECT_FALSE(Why.empty());
}

//===----------------------------------------------------------------------===//
// Lifetime IR and predictions
//===----------------------------------------------------------------------===//

TEST(TraceModelTest, LiftsBirthDeathAndTouchSites) {
  DiagEngine Diags;
  TraceModel Model = buildTraceModel(
      lintText("m 1 16\nt 1 4 r\nm 2 8\nf 1\nt 2 2 w\n", Diags));
  EXPECT_EQ(Diags.errorCount(), 0u);
  ASSERT_EQ(Model.Objects.size(), 2u);

  const ObjectLifetime &First = Model.Objects[0];
  EXPECT_EQ(First.Id, 1u);
  EXPECT_EQ(First.Size, 16u);
  EXPECT_EQ(First.BirthIdx, 0u);
  ASSERT_TRUE(First.DeathIdx.has_value());
  EXPECT_EQ(*First.DeathIdx, 3u);
  EXPECT_EQ(First.lifetimeEvents(), 3u);
  EXPECT_EQ(First.TouchIdxs, (std::vector<size_t>{1}));
  EXPECT_EQ(First.BirthLoc, (SourceLoc{1, 1}));

  const ObjectLifetime &Second = Model.Objects[1];
  EXPECT_EQ(Second.Id, 2u);
  EXPECT_FALSE(Second.DeathIdx.has_value()); // leaks
  EXPECT_EQ(Second.TouchIdxs, (std::vector<size_t>{4}));
}

TEST(TraceModelTest, RemallocRebindsId) {
  DiagEngine Diags;
  TraceModel Model =
      buildTraceModel(lintText("m 1 16\nf 1\nm 1 32\nf 1\n", Diags));
  ASSERT_EQ(Model.Objects.size(), 2u);
  EXPECT_EQ(*Model.Objects[0].DeathIdx, 1u);
  EXPECT_EQ(*Model.Objects[1].DeathIdx, 3u);
  EXPECT_EQ(Model.Objects[1].Size, 32u);
}

TEST(TracePredictionsTest, HandComputedScript) {
  DiagEngine Diags;
  TraceModel Model = buildTraceModel(lintText(
      "m 1 100\nm 2 50\nt 1 30 r\nf 1\ns 5 w\nm 3 200\nt 3 8 w\nf 2\n",
      Diags));
  EXPECT_EQ(Diags.errorCount(), 0u);
  TracePredictions P = predictTrace(Model);

  EXPECT_EQ(P.Events, 8u);
  EXPECT_EQ(P.MallocCalls, 3u);
  EXPECT_EQ(P.FreeCalls, 2u);
  EXPECT_EQ(P.TouchEvents, 2u);
  EXPECT_EQ(P.StackTouchEvents, 1u);
  EXPECT_EQ(P.BytesRequested, 350u);
  EXPECT_EQ(P.MaxLiveBytes, 250u); // 1+2 live (150), then 2+3 live (250)
  EXPECT_EQ(P.FinalLiveBytes, 200u);
  EXPECT_EQ(P.MaxLiveObjects, 2u);
  EXPECT_EQ(P.FinalLiveObjects, 1u);
  EXPECT_EQ(P.AppRefs, 43u); // 30 + 5 + 8

  EXPECT_EQ(P.RequestSizes.Count, 3u);
  EXPECT_EQ(P.RequestSizes.Sum, 350u);
  EXPECT_EQ(P.RequestSizes.Min, 50u);
  EXPECT_EQ(P.RequestSizes.Max, 200u);
  // 50 is exact bucket 50; 100 and 200 land in log buckets.
  EXPECT_EQ(P.RequestSizes.Buckets[50], 1u);
  EXPECT_EQ(P.RequestSizes.Buckets[TelemetryBuckets::indexFor(100)], 1u);
  EXPECT_EQ(P.RequestSizes.Buckets[TelemetryBuckets::indexFor(200)], 1u);

  // Lifetimes: object 1 freed at event 3, born at 0 -> 3; object 2 freed
  // at 7, born at 1 -> 6; object 3 leaks -> unrecorded.
  EXPECT_EQ(P.Lifetimes.Count, 2u);
  EXPECT_EQ(P.Lifetimes.Buckets[3], 1u);
  EXPECT_EQ(P.Lifetimes.Buckets[6], 1u);
}

//===----------------------------------------------------------------------===//
// Spec structural parsing (support) and parseMatrixSpec tightening
//===----------------------------------------------------------------------===//

TEST(SpecKeyValuesTest, SplitsCleanSpec) {
  DiagEngine Diags;
  std::vector<SpecKeyValue> Axes =
      parseSpecKeyValues("workloads=gs;allocators=BSD", Diags);
  EXPECT_TRUE(Diags.clean());
  ASSERT_EQ(Axes.size(), 2u);
  EXPECT_EQ(Axes[0].Key, "workloads");
  EXPECT_EQ(Axes[0].Value, "gs");
  EXPECT_EQ(Axes[0].Offset, 0u);
  EXPECT_EQ(Axes[1].Key, "allocators");
  EXPECT_EQ(Axes[1].Offset, 13u);
}

TEST(SpecKeyValuesTest, StructuralRules) {
  DiagEngine Diags;
  parseSpecKeyValues("workloads=gs;;x;caches=;workloads=es", Diags);
  EXPECT_TRUE(hasRule(Diags, "spec-empty-axis", 1, 14));
  EXPECT_TRUE(hasRule(Diags, "spec-missing-equals", 1, 15));
  EXPECT_TRUE(hasRule(Diags, "spec-empty-value", 1, 17));
  EXPECT_TRUE(hasRule(Diags, "spec-duplicate-axis", 1, 25));
  EXPECT_EQ(Diags.errorCount(), 4u);
}

TEST(MatrixSpecParseTest, RejectsDuplicateAxis) {
  // The old parser silently accumulated duplicate list axes (and
  // last-write-won on scalar axes); both are now hard errors.
  MatrixSpec Spec;
  std::string Error;
  EXPECT_FALSE(parseMatrixSpec(
      "workloads=gs;allocators=BSD;workloads=espresso", Spec, Error));
  EXPECT_NE(Error.find("given twice"), std::string::npos);
  EXPECT_FALSE(parseMatrixSpec(
      "workloads=gs;allocators=BSD;telemetry=off;telemetry=full", Spec,
      Error));
}

TEST(MatrixSpecParseTest, RejectsEmptyAxisValue) {
  MatrixSpec Spec;
  std::string Error;
  EXPECT_FALSE(parseMatrixSpec("workloads=;allocators=BSD", Spec, Error));
  EXPECT_NE(Error.find("empty value"), std::string::npos);
}

TEST(MatrixSpecParseTest, CleanSpecStillParses) {
  MatrixSpec Spec;
  std::string Error;
  ASSERT_TRUE(parseMatrixSpec(
      "workloads=gs,espresso;allocators=FirstFit,BSD;caches=16,64;"
      "penalty=25,100;telemetry=summary",
      Spec, Error))
      << Error;
  EXPECT_EQ(Spec.Workloads.size(), 2u);
  EXPECT_EQ(Spec.Allocators.size(), 2u);
  EXPECT_EQ(Spec.PenaltiesCycles.size(), 2u);
  EXPECT_EQ(Spec.Base.Telemetry, TelemetryLevel::Summary);
}

//===----------------------------------------------------------------------===//
// Matrix-spec findings (parseMatrixSpec's diagnosing form)
//===----------------------------------------------------------------------===//

TEST(SpecLintTest, CleanSpec) {
  DiagEngine Diags;
  lintSpec("workloads=gs;allocators=BSD,FirstFit;caches=16:32:2;"
           "paging=512;penalty=25;telemetry=full",
           Diags);
  EXPECT_TRUE(Diags.clean());

  // Delivery mode is a test seam, not a matrix axis.
  DiagEngine Delivery;
  lintSpec("workloads=gs;allocators=BSD;delivery=scalar", Delivery);
  EXPECT_TRUE(hasRule(Delivery, "spec-unknown-axis", 1, 29));
  EXPECT_EQ(Delivery.errorCount(), 1u);
}

TEST(SpecLintTest, ReportsEveryProblem) {
  DiagEngine Diags;
  lintSpec("workloads=gs,bogus,gs;allocators=BSD;caches=17;"
           "penalty=0;planets=mars;telemetry=loud",
           Diags);
  EXPECT_TRUE(hasRule(Diags, "spec-unknown-workload", 1, 14));
  EXPECT_TRUE(hasRule(Diags, "spec-duplicate-value", 1, 20));
  EXPECT_TRUE(hasRule(Diags, "spec-bad-cache"));
  EXPECT_TRUE(hasRule(Diags, "spec-bad-number"));
  EXPECT_TRUE(hasRule(Diags, "spec-unknown-axis"));
  EXPECT_TRUE(hasRule(Diags, "spec-bad-value"));
  EXPECT_EQ(Diags.errorCount(), 5u);
  EXPECT_EQ(Diags.warningCount(), 1u);
}

TEST(SpecLintTest, MissingRequiredAxes) {
  DiagEngine Diags;
  lintSpec("caches=16", Diags);
  EXPECT_TRUE(hasRule(Diags, "spec-missing-workloads"));
  EXPECT_TRUE(hasRule(Diags, "spec-missing-allocators"));
}

TEST(SpecLintTest, EmptyCrossProductWhenNoNameSurvives) {
  DiagEngine Diags;
  lintSpec("workloads=bogus;allocators=BSD", Diags);
  EXPECT_TRUE(hasRule(Diags, "spec-unknown-workload"));
  EXPECT_TRUE(hasRule(Diags, "spec-missing-workloads"));
  EXPECT_FALSE(hasRule(Diags, "spec-missing-allocators"));
}

TEST(SpecLintTest, UnknownAllocator) {
  DiagEngine Diags;
  lintSpec("workloads=gs;allocators=BSD,NotReal", Diags);
  EXPECT_TRUE(hasRule(Diags, "spec-unknown-allocator", 1, 29));
}

TEST(SpecLintTest, CellBankErrorsAreSpecErrors) {
  // What would fail every cell at run time is a spec finding, located at
  // the axis value that causes it.
  DiagEngine Dup;
  lintSpec("workloads=make;allocators=BSD;caches=16,16", Dup);
  EXPECT_TRUE(hasRule(Dup, "spec-duplicate-cache", 1, 38));
  EXPECT_EQ(Dup.errorCount(), 1u);

  // A stack-legal family (one set count, varying associativity) is clean.
  DiagEngine Legal;
  lintSpec("workloads=make;allocators=BSD;caches=16,32:32:2", Legal);
  EXPECT_TRUE(Legal.clean());

  // A cache whose byte count overflows 32 bits is out of range, not a
  // wrapped-around small cache.
  DiagEngine Overflow;
  lintSpec("workloads=make;allocators=BSD;caches=4194320", Overflow);
  EXPECT_TRUE(hasRule(Overflow, "spec-bad-cache", 1, 38));
  ASSERT_EQ(Overflow.errorCount(), 1u);
  EXPECT_NE(Overflow.firstError().find("out of range"), std::string::npos);
}

TEST(SpecLintTest, AgreesWithParseMatrixSpec) {
  // The diagnosing and one-shot forms agree, and a spec that parses clean
  // also runs clean: none of its cells fails validation.
  struct Case {
    const char *Text;
    bool Clean;
  };
  const Case Cases[] = {
      {"workloads=gs;allocators=BSD", true},
      {"workloads=gs,espresso;allocators=FirstFit,BSD;caches=16,64", true},
      {"workloads=gs;allocators=BSD;workloads=es", false}, // duplicate axis
      {"workloads=gs", false},                             // no allocators
      {"workloads=gs;allocators=", false},                 // empty value
      {"workloads=gs;allocators=BSD;caches=16,,64", false},
      {"workloads=gs;allocators=BSD;junk=1", false},
      {"workloads=gs;allocators=BSD;caches=4194320", false}, // overflow
      {"workloads=gs;allocators=BSD;caches=16,16", false},   // duplicate
      {"workloads=gs;allocators=BSD;caches=16,32;engine=stackdist", false},
      {"workloads=gs;allocators=BSD;delivery=scalar", false},
  };
  for (const Case &C : Cases) {
    DiagEngine Diags;
    MatrixSpec Linted;
    bool Clean = parseMatrixSpec(C.Text, Linted, Diags);
    EXPECT_EQ(Clean, Diags.errorCount() == 0) << C.Text;
    EXPECT_EQ(Clean, C.Clean) << C.Text;
    MatrixSpec Spec;
    std::string Error;
    EXPECT_EQ(Clean, parseMatrixSpec(C.Text, Spec, Error))
        << "disagreement on '" << C.Text << "': " << Error;
    EXPECT_EQ(Error, Diags.firstError()) << C.Text;
    if (!Clean)
      continue;
    MatrixOptions Options;
    Options.CellRunnerEx = [](const ExperimentConfig &, TelemetrySnapshot &) {
      return RunResult();
    };
    EXPECT_EQ(runMatrix(Spec, Options).failedCount(), 0u) << C.Text;
  }
}

//===----------------------------------------------------------------------===//
// Report rendering
//===----------------------------------------------------------------------===//

TEST(LintReportTest, HumanOutputIsCompilerStyle) {
  LintInput Input;
  Input.Name = "bad.events";
  Input.Kind = "trace";
  DiagEngine Diags;
  lintText("f 1\n", Diags);
  Input.Diags = Diags;
  std::ostringstream OS;
  std::vector<LintInput> Inputs;
  Inputs.push_back(std::move(Input));
  printLintReport(OS, Inputs);
  EXPECT_NE(OS.str().find("bad.events:1:1: error:"), std::string::npos);
  EXPECT_NE(OS.str().find("[trace-free-unknown]"), std::string::npos);
  EXPECT_NE(OS.str().find("1 error, 0 warnings"), std::string::npos);
}

TEST(LintReportTest, JsonCarriesSchemaAndPredictions) {
  LintInput Input;
  Input.Name = "ok.events";
  Input.Kind = "trace";
  DiagEngine Diags;
  std::vector<LocatedAllocEvent> Events = lintText("m 1 16\nf 1\n", Diags);
  Input.Diags = Diags;
  Input.Predictions = predictTrace(buildTraceModel(std::move(Events)));
  std::ostringstream OS;
  std::vector<LintInput> Inputs;
  Inputs.push_back(std::move(Input));
  writeLintReportJson(OS, Inputs);
  const std::string Json = OS.str();
  EXPECT_NE(Json.find("\"schema\": \"allocsim-lint-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"kind\": \"trace\""), std::string::npos);
  EXPECT_NE(Json.find("\"predictions\": {"), std::string::npos);
  EXPECT_NE(Json.find("\"clean\": true"), std::string::npos);
}

TEST(LintReportTest, JsonEscapesMessages) {
  EXPECT_EQ(jsonEscaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(jsonEscaped(std::string(1, '\x01')), "\\u0001");
}
