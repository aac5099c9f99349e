//===- support/CommandLine.h - Tiny flag parser -----------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal --flag=value / --flag value parser for the benchmark and example
/// binaries. Unknown flags are fatal (they usually indicate a typo in an
/// experiment script). A flag registered with a "true" or "false" default is
/// boolean: parse() refuses any value but true/false, 1/0 or yes/no, so
/// getBool never meets one.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_SUPPORT_COMMANDLINE_H
#define ALLOCSIM_SUPPORT_COMMANDLINE_H

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace allocsim {

/// Parses argv into string-valued flags plus positional arguments.
class CommandLine {
public:
  /// Registers a flag with a default value and help text. Must be called for
  /// every flag before parse(); parse() rejects unregistered flags.
  void addFlag(const std::string &Name, const std::string &Default,
               const std::string &Help);

  /// Parses argv. Returns false if --help was given (after printing usage)
  /// or parsing failed (after printing "<program>: error: ...").
  bool parse(int Argc, const char *const *Argv);

  /// Flag accessors; the flag must have been registered.
  const std::string &getString(const std::string &Name) const;
  int64_t getInt(const std::string &Name) const;
  double getDouble(const std::string &Name) const;
  bool getBool(const std::string &Name) const;

  const std::vector<std::string> &positional() const { return Positional; }

  /// Prints usage to stderr.
  void printHelp(const char *Program) const;

  /// Prints "<program>: error: \p Message" to stderr, naming the program
  /// from the argv[0] parse() saw.
  void reportError(const std::string &Message) const;

private:
  struct Flag {
    std::string Value;
    std::string Default;
    std::string Help;
  };
  std::map<std::string, Flag> Flags;
  std::vector<std::string> Positional;
  /// argv[0]'s file name, for diagnostics.
  std::string ProgramName;
};

/// Reads the integer flag --\p Name into \p Value, accepting only a number
/// (decimal, 0x hex or 0 octal) from \p Min to T's maximum. Anything else
/// is reported through Cli.reportError and refused, never narrowed;
/// \p Value is then left alone.
template <typename T>
bool readUnsignedFlag(const CommandLine &Cli, const std::string &Name,
                      T &Value, T Min) {
  const std::string &Text = Cli.getString(Name);
  char *End = nullptr;
  errno = 0;
  unsigned long long Parsed = std::strtoull(Text.c_str(), &End, 0);
  if (Text.empty() || !std::isdigit(static_cast<unsigned char>(Text[0])) ||
      *End != '\0' || errno == ERANGE || Parsed < Min ||
      Parsed > std::numeric_limits<T>::max()) {
    Cli.reportError("bad --" + Name + " '" + Text +
                    "' (expected an integer from " + std::to_string(Min) +
                    " to " + std::to_string(std::numeric_limits<T>::max()) +
                    ")");
    return false;
  }
  Value = static_cast<T>(Parsed);
  return true;
}

} // namespace allocsim

#endif // ALLOCSIM_SUPPORT_COMMANDLINE_H
