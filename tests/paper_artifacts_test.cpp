//===- tests/paper_artifacts_test.cpp - Rendered paper-artifact golden ----===//
//
// Runs bench_paper at a reduced scale and diffs its whole text output —
// every rendered table and figure, Tables 2-6 and Figures 1-9 — against the
// checked-in tests/golden/paper_artifacts_s64.txt. The integer golden
// (golden_matrix_test) pins the simulated counters; this one pins what the
// renderers make of them: which cell, cache and memory size each artifact
// reads, the normalizations, the re-scaling and the formatting.
//
// Updating the snapshot after an *intentional* behaviour change:
//
//   cmake --build build -j --target paper_artifacts_test bench_paper
//   ALLOCSIM_UPDATE_GOLDEN=1 ./build/tests/paper_artifacts_test
//
// then review the diff of tests/golden/paper_artifacts_s64.txt like any
// other code change.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#ifndef ALLOCSIM_BENCH_PAPER_PATH
#error "ALLOCSIM_BENCH_PAPER_PATH must point at the bench_paper binary"
#endif
#ifndef ALLOCSIM_GOLDEN_FILE
#error "ALLOCSIM_GOLDEN_FILE must point at tests/golden/paper_artifacts_s64.txt"
#endif

namespace {

/// Runs bench_paper with \p Args and captures stdout.
int runBenchPaper(const std::string &Args, std::string &Output) {
  std::string Command = std::string(ALLOCSIM_BENCH_PAPER_PATH) + " " + Args;
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

TEST(PaperArtifactsTest, RenderedArtifactsMatchSnapshot) {
  std::string Current;
  ASSERT_EQ(runBenchPaper("--scale 64 --jobs 2", Current), 0);

  if (std::getenv("ALLOCSIM_UPDATE_GOLDEN")) {
    std::ofstream Out(ALLOCSIM_GOLDEN_FILE);
    ASSERT_TRUE(Out) << "cannot write " << ALLOCSIM_GOLDEN_FILE;
    Out << Current;
    GTEST_SKIP() << "snapshot updated: " << ALLOCSIM_GOLDEN_FILE;
  }

  std::ifstream In(ALLOCSIM_GOLDEN_FILE);
  ASSERT_TRUE(In) << "missing snapshot " << ALLOCSIM_GOLDEN_FILE
                  << " (generate with ALLOCSIM_UPDATE_GOLDEN=1, see file "
                     "header)";
  std::ostringstream Golden;
  Golden << In.rdbuf();

  // Name the first differing line rather than dumping both outputs.
  std::istringstream Want(Golden.str()), Got(Current);
  std::string WantLine, GotLine;
  for (size_t Line = 1;; ++Line) {
    bool HasWant = static_cast<bool>(std::getline(Want, WantLine));
    bool HasGot = static_cast<bool>(std::getline(Got, GotLine));
    if (!HasWant && !HasGot)
      break;
    ASSERT_TRUE(HasWant && HasGot && WantLine == GotLine)
        << "rendered artifacts differ at line " << Line << ":\n  golden:  "
        << (HasWant ? WantLine : "<end of file>")
        << "\n  current: " << (HasGot ? GotLine : "<end of output>")
        << "\nif the change is intentional, regenerate the snapshot "
           "(ALLOCSIM_UPDATE_GOLDEN=1, see test header) and review its diff";
  }
  EXPECT_EQ(Current, Golden.str());
}
