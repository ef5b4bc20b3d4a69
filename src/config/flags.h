#ifndef CCSIM_CONFIG_FLAGS_H_
#define CCSIM_CONFIG_FLAGS_H_

#include <functional>
#include <span>
#include <string>

#include "config/params.h"
#include "util/status.h"

namespace ccsim::config {

/// One --algorithm spelling: a protocol plus its caching mode.
struct AlgorithmChoice {
  const char* name;
  Algorithm algorithm;
  CachingMode caching;
};

/// Every --algorithm name, in `ccsim_run --list` order.
std::span<const AlgorithmChoice> Algorithms();

/// Sets `config`'s protocol and caching mode from an --algorithm name;
/// false (config untouched) if the name is unknown.
bool SetAlgorithm(const std::string& name, ExperimentConfig* config);

/// True if `arg` is `name=VALUE`; stores VALUE in `*out`.
bool ParseValue(const char* arg, const char* name, std::string* out);

/// The binaries that share the flag parser. Each accepts its own subset
/// of the configuration flags, and a few spell one differently:
/// `ccserve --crash=AT:DOWN` is a server self-crash where
/// `ccsim_run --crash=NODE:AT:DOWN` names the node, and on the two
/// real-substrate tools every fault flag turns the recovery layer on (both
/// ends of the wire must agree on recovery mode).
enum class Tool { kSimRun, kServe, kLoad };

/// What a flag handler did with one argument.
enum class FlagResult {
  kNotMine,  // not this handler's flag
  kTaken,    // consumed
  kStop,     // consumed, and parsing ends here (e.g. --list)
  kError,    // malformed; the handler set the one-line message
};

/// A binary's own flags: ports, durations, output modes.
using OwnFlags = std::function<FlagResult(const char* arg, std::string* error)>;

/// Every tool's defaults: Table 5 with 10 clients.
ExperimentConfig ToolConfig();

/// A parsed command line.
struct CommandLine {
  ExperimentConfig config = ToolConfig();
  std::string algorithm = "2pl";
  /// --help was given; parsing stopped there.
  bool help = false;
};

/// Parses argv[1..argc) for `tool` into `out`, whose fields hold the
/// caller's defaults. Each argument is tried as --help, then as a config
/// flag `tool` accepts, then by `own`; anything else is an unknown flag.
/// On success the algorithm name is applied to `out->config`, unless
/// --help or an own kStop ended parsing. An error carries the one-line
/// message the binary prints before it exits 2.
Status ParseCommandLine(Tool tool, int argc, const char* const* argv,
                        const OwnFlags& own, CommandLine* out);

}  // namespace ccsim::config

#endif  // CCSIM_CONFIG_FLAGS_H_
