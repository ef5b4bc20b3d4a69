#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

void Report::Fail(const std::string& why) {
  failures_.push_back(why);
  std::fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n", why.c_str());
}

void Report::Note(const std::string& line) {
  std::fprintf(stderr, "perfbench: %s\n", line.c_str());
}

int Report::Print() const {
  std::vector<std::string> failures = failures_;
  std::string metrics;
  for (const Metric& m : metrics_) {
    double value = m.value;
    if (!std::isfinite(value)) {
      failures.push_back("metric " + m.name + " is not finite");
      value = 0.0;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.15g", value);
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += JsonString(m.name) + ": {\"value\": " + number +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const bool ok = failures.empty();
  // A run whose correctness check fails counts as all failed.
  const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);
  const std::uint64_t failed = ok ? failed_ : attempted;
  std::string list;
  for (const std::string& f : failures) {
    list += (list.empty() ? "" : ", ") + JsonString(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}, \"digest\": %s, \"failures\": [%s]}\n",
              ok ? "true" : "false", attempted, failed, metrics.c_str(),
              JsonString(digest_).c_str(), list.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

std::uint64_t ThreadVoluntarySwitches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<std::uint64_t>(usage.ru_nvcsw);
}

double PeakRssMb() {
  // VmHWM is this process image's own high-water mark; ru_maxrss would
  // also carry the launching process's peak across exec.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

std::uint64_t Fnv1a(const std::string& text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
