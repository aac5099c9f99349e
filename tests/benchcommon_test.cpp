//===- tests/benchcommon_test.cpp - Bench harness + paper-data tests ------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Coverage for the shared benchmark harness (bench/BenchCommon): the common
// flag parsing, the extension benches' --workload/--cache-kb diagnostics and
// allocsim_workload_tool's argument diagnostics (both run as subprocesses:
// a bad argument exits 1 with a message instead of aborting), the
// conform/PaperPoints transcription bench_paper prints
// beside measured values, and — via death tests — runBenchMatrix's fatal
// paths: a failed cell must die with the cell's coordinates in the
// message, and an unwritable --out-json path must die naming the path.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "conform/PaperPoints.h"

#include "support/Json.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/wait.h>

using namespace allocsim;

#if !defined(ALLOCSIM_VICTIM_BENCH_PATH) ||                                   \
    !defined(ALLOCSIM_GEOMETRY_BENCH_PATH) ||                                 \
    !defined(ALLOCSIM_WORKLOAD_TOOL_PATH)
#error "the bench and workload-tool binary paths must be defined"
#endif

namespace {

std::optional<BenchOptions> parseArgs(std::vector<const char *> Argv) {
  Argv.insert(Argv.begin(), "bench_test");
  CommandLine Cli;
  return parseBenchOptions(static_cast<int>(Argv.size()), Argv.data(), Cli);
}

//===----------------------------------------------------------------------===//
// Common flag parsing
//===----------------------------------------------------------------------===//

TEST(BenchOptionsTest, DefaultsMatchDocumentation) {
  std::optional<BenchOptions> Options = parseArgs({});
  ASSERT_TRUE(Options.has_value());
  EXPECT_EQ(Options->Scale, 8u);
  EXPECT_EQ(Options->Seed, 1592932958u);
  EXPECT_FALSE(Options->Csv);
  EXPECT_EQ(Options->Jobs, 0u);
  EXPECT_TRUE(Options->OutJson.empty());
  EXPECT_EQ(Options->Telemetry, TelemetryLevel::Off);
  EXPECT_TRUE(Options->OutTelemetryJson.empty());
}

TEST(BenchOptionsTest, FlagsOverrideDefaults) {
  std::optional<BenchOptions> Options =
      parseArgs({"--scale=16", "--seed=7", "--csv=true", "--jobs=2",
                 "--out-json=matrix.json", "--telemetry=summary",
                 "--out-telemetry-json=telemetry.json"});
  ASSERT_TRUE(Options.has_value());
  EXPECT_EQ(Options->Scale, 16u);
  EXPECT_EQ(Options->Seed, 7u);
  EXPECT_TRUE(Options->Csv);
  EXPECT_EQ(Options->Jobs, 2u);
  EXPECT_EQ(Options->OutJson, "matrix.json");
  EXPECT_EQ(Options->Telemetry, TelemetryLevel::Summary);
  EXPECT_EQ(Options->OutTelemetryJson, "telemetry.json");
}

TEST(BenchOptionsTest, BadTelemetryLevelIsRejected) {
  EXPECT_FALSE(parseArgs({"--telemetry=verbose"}).has_value());
}

TEST(BenchOptionsTest, BadFlagValuesAreRejectedNotNarrowed) {
  // --scale, --seed and --jobs go through readUnsignedFlag: a sign, a
  // non-number or a value past the target type is refused, never wrapped.
  // A boolean flag takes only a boolean.
  for (const char *Bad :
       {"--scale=-1", "--scale=abc", "--scale=0", "--scale=4294967296",
        "--scale= 8", "--jobs=-1", "--jobs=4294967296",
        "--seed=0x1ffffffffffffffff", "--seed=-1", "--csv=bogus"})
    EXPECT_FALSE(parseArgs({Bad}).has_value()) << Bad;
  std::optional<BenchOptions> Options =
      parseArgs({"--scale=4294967295", "--seed=0xffffffffffffffff",
                 "--jobs=0x10"});
  ASSERT_TRUE(Options.has_value());
  EXPECT_EQ(Options->Scale, 4294967295u);
  EXPECT_EQ(Options->Seed, UINT64_MAX);
  EXPECT_EQ(Options->Jobs, 16u);
}

/// Parses \p Argv with the extension benches' --workload and --cache-kb.
CommandLine parseBenchFlags(std::vector<const char *> Argv) {
  Argv.insert(Argv.begin(), "bench_test");
  CommandLine Cli;
  Cli.addFlag("workload", "espresso", "");
  Cli.addFlag("cache-kb", "16", "");
  EXPECT_TRUE(Cli.parse(static_cast<int>(Argv.size()), Argv.data()));
  return Cli;
}

/// Runs \p Command with stderr folded into \p Output; returns the exit
/// status, or -1 if it did not exit normally (an abort is a failure).
int runCapture(const std::string &Command, std::string &Output) {
  FILE *Pipe = popen((Command + " 2>&1").c_str(), "r");
  if (!Pipe)
    return -1;
  char Buffer[512];
  Output.clear();
  while (std::fgets(Buffer, sizeof(Buffer), Pipe))
    Output += Buffer;
  int Status = pclose(Pipe);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

TEST(BenchOptionsTest, UnknownWorkloadIsRefused) {
  WorkloadId Workload = WorkloadId::Espresso;
  EXPECT_FALSE(readWorkloadFlag(parseBenchFlags({"--workload=nope"}),
                                Workload));
  EXPECT_EQ(Workload, WorkloadId::Espresso);
  EXPECT_TRUE(readWorkloadFlag(parseBenchFlags({"--workload=gawk"}),
                               Workload));
  EXPECT_EQ(Workload, WorkloadId::Gawk);
}

TEST(BenchOptionsTest, CacheKbIsRangeAndGeometryChecked) {
  // Not a power of two, not a number, zero, past 32 bits as a count and
  // past 32 bits as a byte size: each refused, never narrowed.
  for (const char *Bad :
       {"--cache-kb=3", "--cache-kb=abc", "--cache-kb=0", "--cache-kb=-16",
        "--cache-kb=4294967296", "--cache-kb=4194304"}) {
    uint32_t CacheKb = 0;
    std::vector<CacheConfig> Geometry = {{0, 32, 1}};
    EXPECT_FALSE(readCacheKbFlag(parseBenchFlags({Bad}), CacheKb, Geometry))
        << Bad;
  }
  // Every geometry must be valid at the size: a 4K block does not fit 2K.
  uint32_t CacheKb = 0;
  std::vector<CacheConfig> Geometries = {{0, 32, 1}, {0, 4096, 1}};
  EXPECT_FALSE(readCacheKbFlag(parseBenchFlags({"--cache-kb=2"}), CacheKb,
                               Geometries));
  Geometries = {{0, 16, 1}, {0, 128, 8}};
  ASSERT_TRUE(readCacheKbFlag(parseBenchFlags({"--cache-kb=2097152"}),
                              CacheKb, Geometries));
  EXPECT_EQ(CacheKb, 2097152u);
  for (const CacheConfig &Geometry : Geometries)
    EXPECT_EQ(Geometry.SizeBytes, 2048u * 1024 * 1024);
}

TEST(BenchOptionsTest, BadBenchArgumentsExitOneWithADiagnostic) {
  struct BadInvocation {
    const char *Binary;
    const char *Args;
    const char *ExpectInMessage;
  };
  const BadInvocation Bad[] = {
      {ALLOCSIM_GEOMETRY_BENCH_PATH, "--workload nope",
       "unknown workload 'nope'"},
      {ALLOCSIM_VICTIM_BENCH_PATH, "--workload nope",
       "unknown workload 'nope'"},
      {ALLOCSIM_VICTIM_BENCH_PATH, "--cache-kb 3", "bad --cache-kb '3'"},
      {ALLOCSIM_VICTIM_BENCH_PATH, "--cache-kb 4294967296",
       "bad --cache-kb '4294967296'"},
      {ALLOCSIM_GEOMETRY_BENCH_PATH, "--cache-kb 4194304",
       "bad --cache-kb '4194304'"},
  };
  for (const BadInvocation &Invocation : Bad) {
    std::string Output;
    EXPECT_EQ(runCapture(std::string(Invocation.Binary) + " " +
                             Invocation.Args,
                         Output),
              1)
        << Invocation.Args << "\n"
        << Output;
    EXPECT_NE(Output.find(Invocation.ExpectInMessage), std::string::npos)
        << Invocation.Args << "\n"
        << Output;
  }
}

TEST(WorkloadToolTest, BadArgumentsExitOneWithADiagnostic) {
  struct BadInvocation {
    const char *Args;
    const char *ExpectInMessage;
  };
  // Arguments are checked before any script is read, so the script paths
  // here need not exist.
  const BadInvocation Bad[] = {
      {"gen nope out.script", "unknown workload 'nope'"},
      {"gen make out.script 0", "positive"},
      {"gen make out.script abc", "not a number"},
      {"gen make out.script 4294967296", "out of range"},
      {"run in.script Nope", "unknown allocator 'Nope'"},
      {"run in.script BSD 16KB", "not a number"},
      {"run in.script BSD 17", "invalid cache geometry"},
      {"run in.script BSD 4194320", "out of range"},
      {"run in.script BSD 16 16", "duplicate cache geometry"},
  };
  for (const BadInvocation &Invocation : Bad) {
    std::string Output;
    EXPECT_EQ(runCapture(std::string(ALLOCSIM_WORKLOAD_TOOL_PATH) + " " +
                             Invocation.Args,
                         Output),
              1)
        << Invocation.Args << "\n"
        << Output;
    EXPECT_NE(Output.find(Invocation.ExpectInMessage), std::string::npos)
        << Invocation.Args << "\n"
        << Output;
  }
}

TEST(WorkloadToolTest, RunsAScriptUnderCustom) {
  // run goes through runScriptExperiment, which synthesizes Custom's size
  // classes from the script itself.
  const std::string Script = ::testing::TempDir() + "/workload_tool.script";
  const std::string Tool = ALLOCSIM_WORKLOAD_TOOL_PATH;
  std::string Output;
  ASSERT_EQ(runCapture(Tool + " gen make " + Script + " 512", Output), 0)
      << Output;
  ASSERT_EQ(runCapture(Tool + " run " + Script + " Custom 16 64:16:2",
                       Output),
            0)
      << Output;
  EXPECT_NE(Output.find("allocator Custom: "), std::string::npos) << Output;
  EXPECT_NE(Output.find("64K 2-way, 16B blocks"), std::string::npos)
      << Output;
  std::remove(Script.c_str());
}

TEST(BenchOptionsTest, HelpExitsWithoutOptions) {
  EXPECT_FALSE(parseArgs({"--help"}).has_value());
}

TEST(BenchOptionsTest, BaseConfigCarriesTheCommonKnobs) {
  std::optional<BenchOptions> Options =
      parseArgs({"--scale=32", "--seed=99", "--telemetry=full"});
  ASSERT_TRUE(Options.has_value());
  ExperimentConfig Config = baseConfig(WorkloadId::Gawk, *Options);
  EXPECT_EQ(Config.Workload, WorkloadId::Gawk);
  EXPECT_EQ(Config.Engine.Scale, 32u);
  EXPECT_EQ(Config.Engine.Seed, 99u);
  EXPECT_EQ(Config.Telemetry, TelemetryLevel::Full);
}

TEST(BenchOptionsTest, FormatRateUsesScientificNotation) {
  EXPECT_EQ(formatRate(0.00123), "1.230e-03");
  EXPECT_EQ(formatRate(0.0), "0.000e+00");
}

//===----------------------------------------------------------------------===//
// The PaperPoints transcription (Tables 4 and 5)
//===----------------------------------------------------------------------===//

TEST(PaperDataTest, ScanGapsAreExactlyWhereDocumented) {
  // Table 4 lost FIRSTFIT's ptc/gawk/make entries to the scan; Table 5
  // lost FIRSTFIT's gs entry. Everything else is transcribed. Pinning the
  // exact gap set means a transcription edit cannot silently drop a value.
  size_t Unknown4 = 0, Unknown5 = 0;
  for (int Row = 0; Row != 5; ++Row)
    for (int Col = 0; Col != 5; ++Col) {
      Unknown4 += PaperTable4[Row][Col].known() ? 0 : 1;
      Unknown5 += PaperTable5[Row][Col].known() ? 0 : 1;
    }
  EXPECT_EQ(Unknown4, 3u);
  EXPECT_EQ(Unknown5, 1u);
  EXPECT_FALSE(PaperTable4[0][2].known()); // ptc
  EXPECT_FALSE(PaperTable4[0][3].known()); // gawk
  EXPECT_FALSE(PaperTable4[0][4].known()); // make
  EXPECT_FALSE(PaperTable5[0][1].known()); // gs
}

TEST(PaperDataTest, MissSecondsAreASubsetOfTotalSeconds) {
  for (int Row = 0; Row != 5; ++Row)
    for (int Col = 0; Col != 5; ++Col)
      for (const PaperTime &Entry :
           {PaperTable4[Row][Col], PaperTable5[Row][Col]})
        if (Entry.known()) {
          EXPECT_GT(Entry.TotalSeconds, 0.0);
          EXPECT_GE(Entry.MissSeconds, 0.0);
          EXPECT_LT(Entry.MissSeconds, Entry.TotalSeconds);
        }
}

TEST(PaperDataTest, SpotCheckAgainstThePublishedTables) {
  // Corner values straight from the paper: Table 4 espresso/FIRSTFIT
  // 199.67/43.01 and Table 5 make/GNU-local 3.60/0.05.
  EXPECT_DOUBLE_EQ(PaperTable4[0][0].TotalSeconds, 199.67);
  EXPECT_DOUBLE_EQ(PaperTable4[0][0].MissSeconds, 43.01);
  EXPECT_DOUBLE_EQ(PaperTable5[4][4].TotalSeconds, 3.60);
  EXPECT_DOUBLE_EQ(PaperTable5[4][4].MissSeconds, 0.05);
}

//===----------------------------------------------------------------------===//
// runBenchMatrix: the happy path and both fatal paths
//===----------------------------------------------------------------------===//

BenchOptions tinyRunOptions() {
  BenchOptions Options;
  Options.Scale = 1024; // the smallest run the harness supports
  Options.Jobs = 1;
  return Options;
}

ResultStore runMakeMatrix(const BenchOptions &Options) {
  return runBenchMatrix(benchMatrixSpec({WorkloadId::Make}, Options),
                        Options);
}

TEST(RunBenchMatrixTest, RunsAllPaperAllocatorsAndExportsJson) {
  std::string OutPath = ::testing::TempDir() + "/benchcommon_matrix.json";
  BenchOptions Options = tinyRunOptions();
  Options.OutJson = OutPath;

  ResultStore Store = runMakeMatrix(Options);
  EXPECT_EQ(Store.size(), 5u);
  EXPECT_EQ(Store.failedCount(), 0u);
  EXPECT_EQ(Store.spec().Allocators.size(), 5u);
  // Every cell runs at the bench seed verbatim.
  for (size_t I = 0; I != Store.size(); ++I)
    EXPECT_EQ(Store.cell(I).Seed, Options.Seed);

  std::ifstream In(OutPath);
  ASSERT_TRUE(In.good());
  std::ostringstream Text;
  Text << In.rdbuf();
  JsonValue Root;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Text.str(), Root, Error)) << Error;
  ASSERT_NE(Root.get("schema"), nullptr);
  EXPECT_EQ(Root.get("schema")->stringValue(), "allocsim-matrix-v1");
  std::remove(OutPath.c_str());
}

TEST(RunBenchMatrixTest, FailedCellDiesWithCellAttribution) {
  BenchOptions Options = tinyRunOptions();
  Options.Scale = 0; // fails cell validation: scale must be positive
  EXPECT_DEATH(runMakeMatrix(Options),
               "bench matrix cell failed: workload make, allocator "
               "FirstFit: engine scale must be positive");
}

TEST(RunBenchMatrixTest, UnwritableJsonExportDiesNamingThePath) {
  BenchOptions Options = tinyRunOptions();
  Options.OutJson = "/nonexistent-dir/matrix.json";
  EXPECT_DEATH(runMakeMatrix(Options),
               "cannot write '/nonexistent-dir/matrix.json'");
}

TEST(RunBenchMatrixTest, UnwritableTelemetryExportDiesNamingThePath) {
  BenchOptions Options = tinyRunOptions();
  Options.OutTelemetryJson = "/nonexistent-dir/telemetry.json";
  EXPECT_DEATH(runMakeMatrix(Options),
               "cannot write '/nonexistent-dir/telemetry.json'");
}

} // namespace
