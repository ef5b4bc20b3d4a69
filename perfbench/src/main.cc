// Benchmark driver. Usually launched by perfbench/run.py; usable directly:
//
//   perfbench_timed  --workload sim-contended --seed 1 --seconds 10
//   perfbench_timed  --workload sim-contended --seed 1 --seconds 5 --companion
//   perfbench_traced --workload real-2pl --seed 1 --seconds 5
//   perfbench_timed  --workload sim-cached-checked --seed 1 --seconds 3
//       --break skip-validation        (must fail the correctness gate)
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics (name -> value, unit), the model-output digest, and the list of
// correctness failures. Exit status is 0 only for a correct run.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench_{timed,traced} --workload "
               "{sim-contended,sim-cached-checked,real-2pl} --seed N "
               "--seconds S [--companion] [--break "
               "{skip-validation,drop-replies}]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  options.mode = AllocCounting() ? Mode::kTraced : Mode::kTimed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--companion") {
      options.mode = Mode::kCompanion;
    } else if (arg == "--break" && has_value) {
      const std::string what = argv[++i];
      if (what == "skip-validation") {
        options.breakage = Breakage::kSkipValidation;
      } else if (what == "drop-replies") {
        options.breakage = Breakage::kDropReplies;
      } else {
        return Usage("unknown --break value");
      }
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.seconds <= 0) {
    return Usage("--seconds must be positive");
  }
  const bool sim = options.workload == "sim-contended" ||
                   options.workload == "sim-cached-checked";
  if (!sim && options.workload != "real-2pl") {
    return Usage("unknown workload");
  }
  if (options.mode == Mode::kCompanion && AllocCounting()) {
    return Usage("--companion is a mode of perfbench_timed");
  }

  Report report;
  report.Note("host cores " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
              ", build " + PERFBENCH_BUILD_TYPE + ", workload " +
              options.workload + ", seed " + std::to_string(options.seed));
  if (sim) {
    RunSimWorkload(options, &report);
  } else {
    RunRealWorkload(options, &report);
  }
  if (options.mode == Mode::kTraced && report.correct()) {
    RunLayerProbes(&report);
  }
  return report.Print();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
