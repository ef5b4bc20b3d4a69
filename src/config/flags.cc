#include "config/flags.h"

#include <cstdlib>
#include <cstring>
#include <vector>

namespace ccsim::config {
namespace {

constexpr AlgorithmChoice kAlgorithms[] = {
    {"2pl", Algorithm::kTwoPhaseLocking, CachingMode::kInterTransaction},
    {"2pl-intra", Algorithm::kTwoPhaseLocking,
     CachingMode::kIntraTransaction},
    {"cert", Algorithm::kCertification, CachingMode::kInterTransaction},
    {"cert-intra", Algorithm::kCertification,
     CachingMode::kIntraTransaction},
    {"callback", Algorithm::kCallbackLocking,
     CachingMode::kInterTransaction},
    {"no-wait", Algorithm::kNoWaitLocking, CachingMode::kInterTransaction},
    {"no-wait-notify", Algorithm::kNoWaitNotify,
     CachingMode::kInterTransaction},
};

// Which tools accept a flag (bit per Tool).
constexpr unsigned kSim = 1u << static_cast<unsigned>(Tool::kSimRun);
constexpr unsigned kServe = 1u << static_cast<unsigned>(Tool::kServe);
constexpr unsigned kLoad = 1u << static_cast<unsigned>(Tool::kLoad);
constexpr unsigned kAll = kSim | kServe | kLoad;

int Int(const std::string& s) { return std::atoi(s.c_str()); }
double Real(const std::string& s) { return std::atof(s.c_str()); }

void Assign(const std::string& v, int* field) { *field = Int(v); }
void Assign(const std::string& v, double* field) { *field = Real(v); }
void Assign(const std::string& v, std::string* field) { *field = v; }
void Assign(const std::string& v, std::uint64_t* field) {
  *field = static_cast<std::uint64_t>(std::strtoull(v.c_str(), nullptr, 10));
}

/// The ':'-separated fields of a flag value.
std::vector<std::string> Fields(const std::string& value) {
  std::vector<std::string> fields;
  for (std::size_t pos = 0;;) {
    const std::size_t colon = value.find(':', pos);
    fields.push_back(value.substr(pos, colon - pos));
    if (colon == std::string::npos) {
      return fields;
    }
    pos = colon + 1;
  }
}

/// NODE:AT:DUR[:DIR][:hard]
bool ParsePartition(const std::string& value,
                    FaultParams::PartitionEvent* part, std::string* error) {
  const std::vector<std::string> f = Fields(value);
  if (f.size() < 3) {
    *error = "--partition wants NODE:AT:DUR[:DIR][:hard]";
    return false;
  }
  part->node = Int(f[0]);
  part->at_s = Real(f[1]);
  part->duration_s = Real(f[2]);
  for (std::size_t i = 3; i < f.size(); ++i) {
    if (f[i] == "both") {
      part->direction = 0;
    } else if (f[i] == "in") {
      part->direction = 1;
    } else if (f[i] == "out") {
      part->direction = 2;
    } else if (f[i] == "hard") {
      part->hard = true;
    } else {
      *error = "--partition DIR wants both|in|out (optionally followed by "
               ":hard)";
      return false;
    }
  }
  return true;
}

/// ccsim_run's NODE:AT:DOWN, or ccserve's AT:DOWN (a server self-crash).
bool ParseCrash(Tool tool, const std::string& value,
                FaultParams::CrashEvent* crash, std::string* error) {
  const bool self = tool == Tool::kServe;
  const std::vector<std::string> f = Fields(value);
  if (f.size() < (self ? 2u : 3u)) {
    *error = self ? "--crash wants AT:DOWN" : "--crash wants NODE:AT:DOWN";
    return false;
  }
  crash->node = self ? -1 : Int(f[0]);  // -1 = the server
  crash->at_s = Real(f[self ? 0 : 1]);
  crash->downtime_s = Real(f[self ? 1 : 2]);
  return true;
}

/// The configuration flags, each gated on the tools that accept it.
FlagResult ParseConfigFlag(Tool tool, const char* arg, CommandLine* out,
                           std::string* error) {
  const unsigned me = 1u << static_cast<unsigned>(tool);
  std::string v;
  auto value = [&](const char* name, unsigned tools) {
    return (tools & me) != 0 && ParseValue(arg, name, &v);
  };
  auto set = [&](const char* name, unsigned tools, auto* field) {
    if (!value(name, tools)) {
      return false;
    }
    Assign(v, field);
    return true;
  };
  auto flag = [&](const char* name, unsigned tools, bool* field) {
    if ((tools & me) == 0 || std::strcmp(arg, name) != 0) {
      return false;
    }
    *field = true;
    return true;
  };
  ExperimentConfig& c = out->config;
  FaultParams& f = c.fault;
  if (flag("--check", kSim | kServe, &c.checker.enabled) ||
      set("--algorithm", kAll, &out->algorithm) ||
      set("--clients", kAll, &c.system.num_clients) ||
      set("--seed", kAll, &c.control.seed) ||
      set("--locality", kSim | kLoad, &c.transaction.inter_xact_loc) ||
      set("--prob-write", kSim | kLoad, &c.transaction.prob_write) ||
      set("--buffer-pages", kSim | kServe, &c.system.server_buffer_pages) ||
      set("--mpl", kSim | kServe, &c.system.mpl) ||
      set("--cluster-factor", kSim, &c.database.cluster_factor) ||
      set("--update-delay", kSim, &c.transaction.update_delay_s) ||
      set("--internal-delay", kSim, &c.transaction.internal_delay_s) ||
      set("--external-delay", kSim, &c.transaction.external_delay_s) ||
      set("--server-mips", kSim, &c.system.server_mips) ||
      set("--client-mips", kSim, &c.system.client_mips) ||
      set("--net-delay-ms", kSim, &c.system.net_delay_ms) ||
      set("--msg-cost", kSim, &c.system.msg_cost_instr) ||
      set("--data-disks", kSim, &c.system.num_data_disks) ||
      set("--log-disks", kSim, &c.system.num_log_disks) ||
      set("--cache-pages", kSim, &c.system.client_cache_pages) ||
      set("--commits", kSim, &c.control.target_commits) ||
      set("--max-seconds", kSim, &c.control.max_measure_seconds) ||
      set("--rpc-timeout-ms", kSim, &f.rpc_timeout_ms) ||
      set("--lease-ms", kSim, &f.lease_ms) ||
      set("--idle-timeout-ms", kSim, &f.xact_idle_timeout_ms)) {
    return FlagResult::kTaken;
  }
  // These need the recovery layer (lost or repeated messages, shed
  // requests and damped retries wedge a client without it).
  if (flag("--recovery", kAll, &f.recovery_enabled) ||
      set("--drop", kAll, &f.drop_probability) ||
      set("--dup", kAll, &f.duplicate_probability) ||
      set("--queue-limit", kSim, &f.server_queue_limit) ||
      set("--retry-budget", kSim, &f.retry_budget) ||
      set("--retry-jitter", kSim, &f.retry_jitter)) {
    f.recovery_enabled = true;
    return FlagResult::kTaken;
  }
  // A delay spike or a storage fault is survivable without it, so
  // ccsim_run leaves those to --recovery; on the wire both ends must agree
  // on recovery mode, so there every fault flag turns it on.
  const bool wire = tool != Tool::kSimRun;
  if (set("--torn-write", kSim | kServe, &f.torn_write_probability) ||
      set("--bit-flip", kSim | kServe, &f.bit_flip_probability)) {
    f.recovery_enabled = f.recovery_enabled || wire;
    return FlagResult::kTaken;
  }
  if (value("--spike", kAll)) {
    const std::vector<std::string> p = Fields(v);
    if (p.size() < 2) {
      *error = "--spike wants P:MS";
      return FlagResult::kError;
    }
    f.delay_spike_probability = Real(p[0]);
    f.delay_spike_ms = Real(p[1]);
    f.recovery_enabled = f.recovery_enabled || wire;
  } else if (value("--crash", kSim | kServe)) {
    FaultParams::CrashEvent crash;
    if (!ParseCrash(tool, v, &crash, error)) {
      return FlagResult::kError;
    }
    f.crashes.push_back(crash);
    f.recovery_enabled = true;
  } else if (value("--partition", kAll)) {
    FaultParams::PartitionEvent part;
    if (!ParsePartition(v, &part, error)) {
      return FlagResult::kError;
    }
    f.partitions.push_back(part);
    f.recovery_enabled = true;
  } else if (value("--xact-size", kSim)) {
    const std::vector<std::string> p = Fields(v);
    if (p.size() < 2) {
      *error = "--xact-size wants MIN:MAX";
      return FlagResult::kError;
    }
    c.transaction.min_xact_size = Int(p[0]);
    c.transaction.max_xact_size = Int(p[1]);
  } else if (value("--object-size", kSim)) {
    c.database.object_size = {Int(v)};
  } else {
    return FlagResult::kNotMine;
  }
  return FlagResult::kTaken;
}

}  // namespace

std::span<const AlgorithmChoice> Algorithms() { return kAlgorithms; }

bool SetAlgorithm(const std::string& name, ExperimentConfig* config) {
  for (const AlgorithmChoice& choice : kAlgorithms) {
    if (name == choice.name) {
      config->algorithm.algorithm = choice.algorithm;
      config->algorithm.caching = choice.caching;
      return true;
    }
  }
  return false;
}

bool ParseValue(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') {
    return false;
  }
  *out = arg + len + 1;
  return true;
}

ExperimentConfig ToolConfig() {
  ExperimentConfig cfg = BaseConfig();
  cfg.system.num_clients = 10;
  return cfg;
}

Status ParseCommandLine(Tool tool, int argc, const char* const* argv,
                        const OwnFlags& own, CommandLine* out) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      out->help = true;
      return Status::OK();
    }
    std::string error;
    FlagResult result = ParseConfigFlag(tool, arg, out, &error);
    if (result == FlagResult::kNotMine) {
      result = own(arg, &error);
    }
    switch (result) {
      case FlagResult::kTaken:
        continue;
      case FlagResult::kStop:
        return Status::OK();
      case FlagResult::kError:
        return Status::InvalidArgument(error);
      case FlagResult::kNotMine:
        return Status::InvalidArgument(std::string("unknown flag: ") + arg +
                                       " (try --help)");
    }
  }
  if (!SetAlgorithm(out->algorithm, &out->config)) {
    return Status::InvalidArgument(
        "unknown algorithm '" + out->algorithm + "'" +
        (tool == Tool::kSimRun ? " (see --list)" : ""));
  }
  return Status::OK();
}

}  // namespace ccsim::config
