//===- tests/cli_matrix_test.cpp - Spec parsing & CLI contract tests ------===//
//
// Covers the strict --caches/--paging/--matrix parsing (the old splitList
// silently swallowed empty items, trailing commas, and other malformed
// specs) at two levels: the parse functions directly, and the installed
// allocsim_cli binary as a subprocess — bad specs must exit nonzero with a
// diagnostic, good specs must run and emit valid JSON.
//
//===----------------------------------------------------------------------===//

#include "core/MatrixRunner.h"
#include "support/SpecParse.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace allocsim;

#ifndef ALLOCSIM_CLI_PATH
#error "ALLOCSIM_CLI_PATH must point at the allocsim_cli binary"
#endif

namespace {

/// One list axis through the matrix grammar's axis parser, one-shot:
/// false with the first error's message.
bool parseAxis(const std::string &Key, const std::string &Text,
               MatrixSpec &Spec, std::string &Error) {
  DiagEngine Diags;
  parseMatrixAxis(Key, Text, Spec, Diags);
  Error = Diags.firstError();
  return Diags.errorCount() == 0;
}

/// Runs the CLI with \p Args, discarding output; returns the exit status.
int runCli(const std::string &Args) {
  std::string Command =
      std::string(ALLOCSIM_CLI_PATH) + " " + Args + " >/dev/null 2>&1";
  int Status = std::system(Command.c_str());
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Runs the CLI and captures combined stdout+stderr.
int runCliCapture(const std::string &Args, std::string &Output) {
  std::string Command =
      std::string(ALLOCSIM_CLI_PATH) + " " + Args + " 2>&1";
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return -1;
  char Buffer[512];
  Output.clear();
  while (std::fgets(Buffer, sizeof(Buffer), Pipe))
    Output += Buffer;
  int Status = pclose(Pipe);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

} // namespace

//===----------------------------------------------------------------------===//
// Parse-layer coverage
//===----------------------------------------------------------------------===//

TEST(SpecParseTest, SplitKeepsEmptyItems) {
  EXPECT_EQ(splitSpecList("", ',').size(), 0u);
  EXPECT_EQ(splitSpecList("16", ',').size(), 1u);
  EXPECT_EQ(splitSpecList("16,64", ',').size(), 2u);
  // The point of the fix: malformed lists stay visible.
  EXPECT_EQ(splitSpecList("16,,64", ',').size(), 3u);
  EXPECT_EQ(splitSpecList("16,", ',').size(), 2u);
  EXPECT_EQ(splitSpecList(",16", ',').size(), 2u);
}

TEST(SpecParseTest, UnsignedDiagnostics) {
  uint32_t Value = 0;
  std::string Error;
  EXPECT_TRUE(parseSpecUnsigned("512", "memory size (KB)", Value, Error));
  EXPECT_EQ(Value, 512u);

  EXPECT_FALSE(parseSpecUnsigned("", "memory size (KB)", Value, Error));
  EXPECT_NE(Error.find("missing"), std::string::npos);

  EXPECT_FALSE(parseSpecUnsigned("12abc", "memory size (KB)", Value, Error));
  EXPECT_NE(Error.find("12abc"), std::string::npos);

  EXPECT_FALSE(parseSpecUnsigned("0", "memory size (KB)", Value, Error));
  EXPECT_NE(Error.find("positive"), std::string::npos);

  EXPECT_FALSE(
      parseSpecUnsigned("99999999999", "memory size (KB)", Value, Error));
  EXPECT_NE(Error.find("out of range"), std::string::npos);

  // strtoul would wrap a negative number around (this one to 1) and skip
  // a sign or leading blanks.
  for (const char *Text : {"-18446744073709551615", "-1", "+5", " 5"}) {
    EXPECT_FALSE(parseSpecUnsigned(Text, "memory size (KB)", Value, Error))
        << Text;
    EXPECT_NE(Error.find("not a number"), std::string::npos) << Text;
  }
}

TEST(SpecParseTest, UnsignedListDiagnostics) {
  MatrixSpec Spec;
  std::vector<uint32_t> &Values = Spec.PagingMemoryKb;
  std::string Error;
  EXPECT_TRUE(parseAxis("paging", "", Spec, Error));
  EXPECT_TRUE(Values.empty());
  EXPECT_TRUE(parseAxis("paging", "512,1024,2048", Spec, Error));
  EXPECT_EQ(Values.size(), 3u);

  EXPECT_FALSE(parseAxis("paging", "512,,1024", Spec, Error));
  EXPECT_NE(Error.find("empty item"), std::string::npos);
  EXPECT_FALSE(parseAxis("paging", "512,", Spec, Error));
  EXPECT_NE(Error.find("empty item"), std::string::npos);
  EXPECT_FALSE(parseAxis("paging", "512,slow", Spec, Error));
  EXPECT_NE(Error.find("slow"), std::string::npos);
}

TEST(SpecParseTest, CacheSpecDiagnostics) {
  CacheConfig Config;
  std::string Error;
  EXPECT_TRUE(parseCacheSpec("16", Config, Error));
  EXPECT_EQ(Config.SizeBytes, 16u * 1024);
  EXPECT_EQ(Config.BlockBytes, 32u);
  EXPECT_EQ(Config.Assoc, 1u);
  EXPECT_TRUE(parseCacheSpec("64:16:4", Config, Error));
  EXPECT_EQ(Config.BlockBytes, 16u);
  EXPECT_EQ(Config.Assoc, 4u);

  EXPECT_FALSE(parseCacheSpec("16:32:4:9", Config, Error));
  EXPECT_NE(Error.find("expected sizeKB"), std::string::npos);
  EXPECT_FALSE(parseCacheSpec("16KB", Config, Error));
  EXPECT_NE(Error.find("not a number"), std::string::npos);
  // Power-of-two geometry violations are caught at parse time.
  EXPECT_FALSE(parseCacheSpec("17", Config, Error));
  EXPECT_NE(Error.find("invalid cache geometry"), std::string::npos);
  EXPECT_FALSE(parseCacheSpec("16:33", Config, Error));
  EXPECT_NE(Error.find("invalid cache geometry"), std::string::npos);
  // 4194320 KB is 16 KB past 2^32 bytes: out of range, not a 16K cache.
  EXPECT_FALSE(parseCacheSpec("4194320", Config, Error));
  EXPECT_NE(Error.find("out of range"), std::string::npos);
  EXPECT_TRUE(parseCacheSpec("2097152", Config, Error)) << Error;
  EXPECT_EQ(Config.SizeBytes, 2048u * 1024 * 1024);

  MatrixSpec Spec;
  std::vector<CacheConfig> &Caches = Spec.Caches;
  EXPECT_TRUE(parseAxis("caches", "", Spec, Error));
  EXPECT_TRUE(Caches.empty());
  EXPECT_TRUE(parseAxis("caches", "16,64:32:2", Spec, Error));
  EXPECT_EQ(Caches.size(), 2u);
  EXPECT_FALSE(parseAxis("caches", "16,", Spec, Error));
  EXPECT_NE(Error.find("empty item"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// CLI contract: exit codes and diagnostics
//===----------------------------------------------------------------------===//

TEST(CliMatrixTest, MalformedSpecsExitNonzeroWithDiagnostic) {
  struct BadInvocation {
    const char *Args;
    const char *ExpectInMessage;
  };
  const BadInvocation Bad[] = {
      {"--caches 16,,64", "empty item"},
      {"--caches 16,", "empty item"},
      {"--caches 16KB", "not a number"},
      {"--caches 17", "invalid cache geometry"},
      {"--paging 512,", "empty item"},
      {"--paging 512,slow", "not a number"},
      {"--paging 0", "positive"},
      {"--workload quake", "unknown workload"},
      {"--allocators FirstFit,Nope", "unknown allocator"},
      {"--matrix workloads=gs", "at least one allocator"},
      {"--matrix \"workloads=gs;allocators=BSD;caches=16,\"", "empty item"},
      {"--caches 4194320", "out of range"},
      {"--matrix \"workloads=make;allocators=BSD;caches=4194320\"",
       "out of range"},
      // What would fail every cell is refused before the run.
      {"--matrix \"workloads=make;allocators=BSD;caches=16,16\"",
       "duplicate cache geometry"},
      {"--matrix \"workloads=make;allocators=BSD;caches=16,32;"
       "engine=stackdist\"",
       "unknown matrix axis"},
      {"--caches 16,16", "duplicate cache geometry"},
      {"--matrix \"workloads=gs;allocators=BSD;delivery=scalar\"",
       "unknown matrix axis"},
      // Integer and enum flags: range-checked on their target types.
      {"--scale 4294967297", "bad --scale"},
      {"--scale -1", "bad --scale"},
      {"--scale abc", "bad --scale"},
      {"--scale 0", "bad --scale"},
      {"--jobs -1", "bad --jobs"},
      {"--check-interval 4294967296", "bad --check-interval"},
      {"--conform=true --conform-scale x", "bad --conform-scale"},
      {"--seed 0x1ffffffffffffffff", "bad --seed"},
      {"--seed -1", "bad --seed"},
      {"--check bogus", "bad --check"},
      // Boolean flags take a boolean, not the next flag or a typo.
      {"--matrix \"workloads=gs-small;allocators=BSD\" --csv bogus",
       "flag --csv expects a boolean, got 'bogus'"},
      {"--csv --matrix \"workloads=gs-small;allocators=BSD\"",
       "flag --csv expects a boolean, got '--matrix'"},
      {"--lint=maybe", "flag --lint expects a boolean"},
  };
  for (const BadInvocation &Invocation : Bad) {
    std::string Output;
    int Exit = runCliCapture(Invocation.Args, Output);
    EXPECT_EQ(Exit, 2) << Invocation.Args << "\n" << Output;
    EXPECT_NE(Output.find("allocsim_cli: error:"), std::string::npos)
        << Invocation.Args << "\n" << Output;
    EXPECT_NE(Output.find(Invocation.ExpectInMessage), std::string::npos)
        << Invocation.Args << "\n" << Output;
  }
  // Delivery mode and the cache engine are test seams, not flags.
  EXPECT_EQ(runCli("--delivery scalar"), 2);
  EXPECT_EQ(runCli("--engine stackdist"), 2);
}

TEST(CliMatrixTest, GoodRunEmitsParseableJsonAndExitsZero) {
  std::string JsonPath = testing::TempDir() + "cli_matrix_test_out.json";
  int Exit = runCli(
      "--matrix \"workloads=espresso;allocators=FirstFit,BSD;caches=16\" "
      "--scale 512 --jobs 2 --out-json " +
      JsonPath);
  EXPECT_EQ(Exit, 0);

  std::ifstream In(JsonPath);
  ASSERT_TRUE(In) << "CLI did not write " << JsonPath;
  std::ostringstream Content;
  Content << In.rdbuf();
  std::string Json = Content.str();
  EXPECT_NE(Json.find("\"schema\": \"allocsim-matrix-v1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"allocator\": \"BSD\""), std::string::npos);
  // Structural sanity: balanced braces/brackets, object at top level.
  long Braces = 0, Brackets = 0;
  bool InString = false;
  for (size_t I = 0; I != Json.size(); ++I) {
    char C = Json[I];
    if (C == '"' && (I == 0 || Json[I - 1] != '\\'))
      InString = !InString;
    if (InString)
      continue;
    Braces += C == '{' ? 1 : C == '}' ? -1 : 0;
    Brackets += C == '[' ? 1 : C == ']' ? -1 : 0;
  }
  EXPECT_EQ(Braces, 0);
  EXPECT_EQ(Brackets, 0);
  EXPECT_EQ(Json.front(), '{');
  std::remove(JsonPath.c_str());
}

TEST(CliMatrixTest, LegacySingleWorkloadFlagsStillWork) {
  int Exit = runCli("--workload make --allocators QuickFit --caches 16 "
                    "--scale 512");
  EXPECT_EQ(Exit, 0);
}

TEST(CliMatrixTest, SummaryHeadersNameANon32ByteBlock) {
  // Two 64K caches that differ only in block size get distinct columns;
  // 32-byte geometries keep their historical headers.
  std::string Output;
  int Exit = runCliCapture("--workload make --allocators BSD --scale 512 "
                           "--caches 64:16,64:32,16:32:2,16:64:4",
                           Output);
  EXPECT_EQ(Exit, 0) << Output;
  for (const char *Header : {"miss% 64K:16B ", "miss% 64K ",
                             "miss% 16K:2w ", "miss% 16K:64B:4w "})
    EXPECT_NE(Output.find(Header), std::string::npos) << Header << Output;
}
