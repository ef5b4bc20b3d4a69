#ifndef CCSIM_SIM_RANDOM_H_
#define CCSIM_SIM_RANDOM_H_

#include <cmath>
#include <cstdint>

#include "sim/time.h"
#include "util/macros.h"

namespace ccsim::sim {

/// PCG32 pseudo-random generator (O'Neill, pcg-random.org; XSH-RR variant).
/// Small, fast, and statistically strong; each model component gets its own
/// stream so parameter changes in one component do not perturb the variate
/// sequences of others (common random numbers across algorithm comparisons).
class Pcg32 {
 public:
  /// Seeds the generator. `stream` selects one of 2^63 independent
  /// sequences.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL) {
    state_ = 0;
    inc_ = (stream << 1u) | 1u;
    NextU32();
    state_ += seed;
    NextU32();
  }

  std::uint32_t NextU32() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const std::uint32_t xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU32()) * (1.0 / 4294967296.0);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    CCSIM_DCHECK(lo <= hi);
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    // Lemire-style rejection-free for our span sizes (span << 2^32 keeps the
    // modulo bias negligible; spans here are page counts and sizes).
    const std::uint64_t value =
        (static_cast<std::uint64_t>(NextU32()) * span) >> 32u;
    return lo + static_cast<std::int64_t>(value);
  }

  /// Uniform double in [lo, hi).
  double UniformReal(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// True with probability `p`.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Exponential variate with the given mean (0 if mean <= 0).
  double Exponential(double mean) {
    if (mean <= 0.0) {
      return 0.0;
    }
    double u = NextDouble();
    if (u <= 0.0) {
      u = 1e-12;  // avoid log(0)
    }
    return -mean * std::log(u);
  }

  /// Exponential delay in ticks with mean `mean_ticks` (0 if mean is 0).
  Ticks ExponentialTicks(Ticks mean_ticks) {
    if (mean_ticks <= 0) {
      return 0;
    }
    return static_cast<Ticks>(
        Exponential(static_cast<double>(mean_ticks)) + 0.5);
  }

  /// Uniform tick delay in [lo, hi].
  Ticks UniformTicks(Ticks lo, Ticks hi) { return UniformInt(lo, hi); }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// RNG stream ids of a run, one per component, shared by both substrates:
/// changing one knob leaves the other components' variate sequences alone.
/// Client streams add the client's global id, so a client's workload is the
/// same on either substrate and under any sharding.
inline constexpr std::uint64_t kNetworkStream = 0x7e7;
inline constexpr std::uint64_t kClientObjectStreamBase = 0x1000;
inline constexpr std::uint64_t kClientDelayStreamBase = 0x20000;
inline constexpr std::uint64_t kClientJitterStreamBase = 0x30000;
/// Message faults (the DES injector, the real wire adapter) and a real
/// server's storage faults, drawn apart so each stays deterministic alone.
inline constexpr std::uint64_t kFaultStream = 0xFA17;
inline constexpr std::uint64_t kStorageFaultStream = 0xFA18;

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_RANDOM_H_
