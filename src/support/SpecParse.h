//===- support/SpecParse.h - Diagnostic list/number parsing -----*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict, diagnostic-returning parsers for the comma/colon-separated spec
/// strings the tools accept (--caches, --paging, --matrix). Unlike the old
/// ad-hoc splitting, empty items are *kept*, so malformed specs such as
/// "16,,64" or a trailing comma surface as errors instead of being silently
/// swallowed. Nothing here aborts: every parser reports failure through a
/// bool + error message so tools can print a usage-friendly diagnostic and
/// exit nonzero.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_SUPPORT_SPECPARSE_H
#define ALLOCSIM_SUPPORT_SPECPARSE_H

#include "support/Diag.h"

#include <cstdint>
#include <string>
#include <vector>

namespace allocsim {

/// Splits \p Text on \p Sep, keeping empty items (so validation can reject
/// them with a precise message). An empty \p Text yields an empty list, not
/// a list with one empty item.
std::vector<std::string> splitSpecList(const std::string &Text, char Sep);

/// Parses a positive decimal integer. On failure, returns false and sets
/// \p Error to a message naming \p What and the offending text.
bool parseSpecUnsigned(const std::string &Text, const std::string &What,
                       uint32_t &Value, std::string &Error);

/// One `key=value` axis of a semicolon-separated spec such as --matrix,
/// with where its key starts in the original text (0-based; diagnostics
/// render it as column Offset+1 on line 1 — specs are one-liners).
struct SpecKeyValue {
  std::string Key;
  std::string Value;
  size_t Offset = 0;
};

/// Splits a `key=value;key=value` spec into its axes, reporting every
/// structural problem into \p Diags and continuing past each one:
///
///   spec-empty-axis      (error) empty axis (stray or trailing ';')
///   spec-missing-equals  (error) axis without '=' or with an empty key
///   spec-duplicate-axis  (error) key given twice (the old parser's
///                                behavior was silently inconsistent:
///                                list axes accumulated, scalar axes took
///                                the last write — now both are rejected)
///   spec-empty-value     (error) axis with an empty value ("workloads=")
///
/// Axes that parse cleanly (first occurrence on duplicates) are returned in
/// spec order. Key *meaning* — known axis names, value syntax — is the
/// caller's to check: parseMatrixSpec (core/MatrixRunner.h) and
/// parseFaultPlan (inject/FaultPlan.h) report every such finding too.
std::vector<SpecKeyValue> parseSpecKeyValues(const std::string &Text,
                                             DiagEngine &Diags);

} // namespace allocsim

#endif // ALLOCSIM_SUPPORT_SPECPARSE_H
