//===- support/Diag.h - Exhaustive diagnostics engine -----------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diagnostics engine shared by the static analyses (TraceLint over
/// allocation-event scripts, parseMatrixSpec over matrix specs). Unlike the
/// fatal reporting in support/Error.h — which is the right tool once a
/// simulation is running on input that was promised to be sound — an
/// analysis pass must report *every* problem it can find, with a stable
/// machine-matchable rule id and a precise source location, and let the
/// caller decide what an error is worth.
///
/// A Diag is (rule id, severity, line:column, message). DiagEngine collects
/// them in report order and renders them two ways:
///
///  * human:   `<name>:<line>:<col>: error: <message> [<rule>]`
///    (the compiler-style format editors and CI annotators understand);
///  * machine: a JSON array of diagnostic objects, the "diagnostics" field
///    of the `allocsim-lint-v1` schema (see analyze/TraceLint.h).
///
/// Rule ids are part of the tool contract: tests and downstream automation
/// match on them, so renaming one is a breaking change.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_SUPPORT_DIAG_H
#define ALLOCSIM_SUPPORT_DIAG_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace allocsim {

/// How bad a finding is. Errors make the input unusable (the simulator
/// would die or wedge on it); warnings flag suspicious-but-runnable
/// constructs (leaked objects, empty touches, duplicate matrix cells).
enum class DiagSeverity : uint8_t { Warning, Error };

/// Display name ("warning", "error").
const char *diagSeverityName(DiagSeverity Severity);

/// 1-based position in the analyzed text; 0 means "not attributable to a
/// location" (e.g. a missing required axis).
struct SourceLoc {
  uint32_t Line = 0;
  uint32_t Column = 0;

  bool operator==(const SourceLoc &Other) const = default;
};

/// One finding.
struct Diag {
  /// Stable kebab-case rule id, e.g. "trace-double-free".
  std::string Rule;
  DiagSeverity Severity = DiagSeverity::Error;
  SourceLoc Loc;
  std::string Message;
};

/// Collects findings exhaustively, never aborting: an analysis reports
/// everything it sees and the caller inspects errorCount() afterwards.
class DiagEngine {
public:
  void report(std::string Rule, DiagSeverity Severity, SourceLoc Loc,
              std::string Message);
  void error(std::string Rule, SourceLoc Loc, std::string Message) {
    report(std::move(Rule), DiagSeverity::Error, Loc, std::move(Message));
  }
  void warning(std::string Rule, SourceLoc Loc, std::string Message) {
    report(std::move(Rule), DiagSeverity::Warning, Loc, std::move(Message));
  }

  const std::vector<Diag> &diags() const { return Diags; }
  bool clean() const { return Diags.empty(); }
  size_t errorCount() const { return Errors; }
  size_t warningCount() const { return Diags.size() - Errors; }

  /// First error's message, or "" when error-free (the fatal/bool wrappers
  /// retrofit old one-shot interfaces onto the exhaustive engine).
  std::string firstError() const;

  /// Compiler-style rendering, one line per finding, prefixed with \p Name
  /// (the analyzed file or a pseudo-name like "--matrix").
  void print(std::ostream &OS, const std::string &Name) const;

  /// JSON array of diagnostic objects: {"rule", "severity", "line",
  /// "column", "message"}. \p Indent prefixes every emitted line.
  void writeJson(std::ostream &OS, const std::string &Indent) const;

private:
  std::vector<Diag> Diags;
  size_t Errors = 0;
};

/// Minimal JSON string escaping (quotes, backslashes, control bytes) for
/// emitters that build documents by hand, as this codebase's writers do.
std::string jsonEscaped(const std::string &Text);

} // namespace allocsim

#endif // ALLOCSIM_SUPPORT_DIAG_H
