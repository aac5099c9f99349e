//===- support/CommandLine.cpp - Tiny flag parser -------------------------===//

#include "support/CommandLine.h"

#include "support/Error.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>

using namespace allocsim;

void CommandLine::addFlag(const std::string &Name, const std::string &Default,
                          const std::string &Help) {
  assert(!Flags.count(Name) && "flag registered twice");
  Flags[Name] = Flag{Default, Default, Help};
}

namespace {

std::optional<bool> parseBool(const std::string &Value) {
  if (Value == "true" || Value == "1" || Value == "yes")
    return true;
  if (Value == "false" || Value == "0" || Value == "no")
    return false;
  return std::nullopt;
}

} // namespace

bool CommandLine::parse(int Argc, const char *const *Argv) {
  if (Argc > 0) {
    ProgramName = Argv[0];
    ProgramName.erase(0, ProgramName.rfind('/') + 1);
  }
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printHelp(Argv[0]);
      return false;
    }
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Name, Value;
    auto Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Name = Arg.substr(2, Eq - 2);
      Value = Arg.substr(Eq + 1);
    } else {
      Name = Arg.substr(2);
      if (Flags.count(Name)) {
        if (I + 1 >= Argc) {
          reportError("flag --" + Name + " needs a value");
          return false;
        }
        Value = Argv[++I];
      }
    }
    auto It = Flags.find(Name);
    if (It == Flags.end()) {
      reportError("unknown flag --" + Name);
      printHelp(Argv[0]);
      return false;
    }
    const std::string &Default = It->second.Default;
    if ((Default == "true" || Default == "false") && !parseBool(Value)) {
      reportError("flag --" + Name + " expects a boolean, got '" + Value +
                  "'");
      return false;
    }
    It->second.Value = Value;
  }
  return true;
}

const std::string &CommandLine::getString(const std::string &Name) const {
  auto It = Flags.find(Name);
  if (It == Flags.end())
    reportFatalError("unregistered flag queried: " + Name);
  return It->second.Value;
}

int64_t CommandLine::getInt(const std::string &Name) const {
  const std::string &Value = getString(Name);
  char *End = nullptr;
  int64_t Result = std::strtoll(Value.c_str(), &End, 0);
  if (End == Value.c_str() || *End != '\0')
    reportFatalError("flag --" + Name + " expects an integer, got '" + Value +
                     "'");
  return Result;
}

double CommandLine::getDouble(const std::string &Name) const {
  const std::string &Value = getString(Name);
  char *End = nullptr;
  double Result = std::strtod(Value.c_str(), &End);
  if (End == Value.c_str() || *End != '\0')
    reportFatalError("flag --" + Name + " expects a number, got '" + Value +
                     "'");
  return Result;
}

bool CommandLine::getBool(const std::string &Name) const {
  const std::string &Value = getString(Name);
  if (std::optional<bool> Parsed = parseBool(Value))
    return *Parsed;
  // Unreachable for flags registered with a boolean default: parse()
  // already refused the value.
  reportFatalError("flag --" + Name + " expects a boolean, got '" + Value +
                   "'");
}

void CommandLine::reportError(const std::string &Message) const {
  std::fprintf(stderr, "%s%serror: %s\n", ProgramName.c_str(),
               ProgramName.empty() ? "" : ": ", Message.c_str());
}

void CommandLine::printHelp(const char *Program) const {
  std::fprintf(stderr, "usage: %s [flags]\n", Program);
  for (const auto &[Name, F] : Flags)
    std::fprintf(stderr, "  --%-20s %s (default: %s)\n", Name.c_str(),
                 F.Help.c_str(), F.Default.c_str());
}
