//===- support/SpecParse.cpp - Diagnostic list/number parsing -------------===//

#include "support/SpecParse.h"

#include <cctype>
#include <cstdlib>

using namespace allocsim;

std::vector<std::string> allocsim::splitSpecList(const std::string &Text,
                                                 char Sep) {
  std::vector<std::string> Parts;
  if (Text.empty())
    return Parts;
  std::string::size_type Start = 0;
  for (;;) {
    std::string::size_type End = Text.find(Sep, Start);
    if (End == std::string::npos) {
      Parts.push_back(Text.substr(Start));
      return Parts;
    }
    Parts.push_back(Text.substr(Start, End - Start));
    Start = End + 1;
  }
}

bool allocsim::parseSpecUnsigned(const std::string &Text,
                                 const std::string &What, uint32_t &Value,
                                 std::string &Error) {
  if (Text.empty()) {
    Error = "missing " + What;
    return false;
  }
  // strtoul alone would accept leading blanks, '+' and a wrapped '-'.
  char *End = nullptr;
  unsigned long Parsed = std::strtoul(Text.c_str(), &End, 10);
  if (!std::isdigit(static_cast<unsigned char>(Text[0])) || *End != '\0') {
    Error = "bad " + What + ": '" + Text + "' is not a number";
    return false;
  }
  if (Parsed == 0) {
    Error = "bad " + What + ": must be positive, got '" + Text + "'";
    return false;
  }
  if (Parsed > 0xFFFFFFFFul) {
    Error = "bad " + What + ": '" + Text + "' is out of range";
    return false;
  }
  Value = static_cast<uint32_t>(Parsed);
  return true;
}

std::vector<SpecKeyValue> allocsim::parseSpecKeyValues(const std::string &Text,
                                                       DiagEngine &Diags) {
  std::vector<SpecKeyValue> Axes;
  size_t Offset = 0;
  for (const std::string &Axis : splitSpecList(Text, ';')) {
    SourceLoc Loc{1, static_cast<uint32_t>(Offset + 1)};
    // The next axis starts after this one and its ';'.
    size_t AxisOffset = Offset;
    Offset += Axis.size() + 1;

    if (Axis.empty()) {
      Diags.error("spec-empty-axis", Loc,
                  "empty axis (stray or trailing ';')");
      continue;
    }
    std::string::size_type Eq = Axis.find('=');
    if (Eq == std::string::npos || Eq == 0) {
      Diags.error("spec-missing-equals", Loc,
                  "bad axis '" + Axis + "': expected key=value");
      continue;
    }
    SpecKeyValue KV{Axis.substr(0, Eq), Axis.substr(Eq + 1), AxisOffset};
    if (KV.Value.empty()) {
      Diags.error("spec-empty-value", Loc,
                  "axis '" + KV.Key + "' has an empty value");
      continue;
    }
    bool Duplicate = false;
    for (const SpecKeyValue &Seen : Axes)
      if (Seen.Key == KV.Key) {
        Diags.error("spec-duplicate-axis", Loc,
                    "axis '" + KV.Key + "' given twice (first at column " +
                        std::to_string(Seen.Offset + 1) + ")");
        Duplicate = true;
        break;
      }
    if (!Duplicate)
      Axes.push_back(std::move(KV));
  }
  return Axes;
}
