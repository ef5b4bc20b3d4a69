// Property tests for LatencyHistogram::Merge — the operation every
// multi-shard harvest leans on (ClientDeployment::Harvest merges one
// histogram per shard before reporting percentiles).
//
// The properties: (1) merging per-shard histograms is exactly equivalent
// to one histogram fed the concatenated samples — bucketing commutes with
// partitioning; (2) the merged quantiles sit within one log-space bucket
// of the true sample percentiles (the histogram's stated resolution);
// (3) empty shards are identity elements for Merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "runner/metrics.h"
#include "sim/random.h"

namespace ccsim::runner {
namespace {

/// Rank convention matching LatencyHistogram::Quantile: the element at
/// index floor(q * (n - 1)) of the sorted samples.
double SamplePercentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1));
  return samples[rank];
}

/// One bucket spans a factor of 10^(1/kBucketsPerDecade) in value; the
/// reported midpoint of the bucket holding the true percentile can sit at
/// most one full bucket ratio away from the sample itself.
constexpr double kBucketRatio = 1.1220184543;  // 10^(1/20)

/// A latency population spanning several decades (sub-ms cache hits
/// through multi-second convoy victims), like a real mixed run.
std::vector<double> MixedSamples(sim::Pcg32* rng, int n) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double scale = std::pow(10.0, rng->UniformReal(-4.0, 0.5));
    samples.push_back(rng->Exponential(scale));
  }
  return samples;
}

TEST(LatencyHistogramTest, MergeEqualsConcatenation) {
  sim::Pcg32 rng(1234, 7);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 2000));
    const int shards = static_cast<int>(rng.UniformInt(1, 8));
    const std::vector<double> samples = MixedSamples(&rng, n);

    LatencyHistogram whole;
    std::vector<LatencyHistogram> parts(static_cast<std::size_t>(shards));
    for (const double s : samples) {
      whole.Add(s);
      parts[static_cast<std::size_t>(rng.UniformInt(0, shards - 1))].Add(s);
    }
    LatencyHistogram merged;
    for (const LatencyHistogram& part : parts) {
      merged.Merge(part);
    }

    ASSERT_EQ(merged.count(), whole.count());
    for (const double q : {0.0, 0.50, 0.90, 0.99, 1.0}) {
      EXPECT_DOUBLE_EQ(merged.Quantile(q), whole.Quantile(q))
          << "trial " << trial << " q=" << q;
    }
  }
}

TEST(LatencyHistogramTest, MergedQuantilesWithinBucketResolution) {
  sim::Pcg32 rng(99, 3);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(50, 3000));
    const std::vector<double> samples = MixedSamples(&rng, n);

    std::vector<LatencyHistogram> parts(4);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      parts[i % parts.size()].Add(samples[i]);
    }
    LatencyHistogram merged;
    for (const LatencyHistogram& part : parts) {
      merged.Merge(part);
    }

    for (const double q : {0.50, 0.90, 0.99}) {
      const double truth = SamplePercentile(samples, q);
      const double est = merged.Quantile(q);
      if (truth <= 1e-6) {
        // Below the histogram floor everything lands in bucket 0.
        EXPECT_LE(est, 1e-6 * kBucketRatio);
        continue;
      }
      EXPECT_GE(est, truth / kBucketRatio)
          << "trial " << trial << " q=" << q;
      EXPECT_LE(est, truth * kBucketRatio)
          << "trial " << trial << " q=" << q;
    }
  }
}

TEST(LatencyHistogramTest, EmptyShardsAreMergeIdentity) {
  // ccload shards that drove zero clients (or lost their connection before
  // the window) contribute empty histograms; they must not perturb the
  // merged percentiles.
  LatencyHistogram populated;
  for (int i = 1; i <= 100; ++i) {
    populated.Add(0.001 * i);
  }
  const double p50 = populated.Quantile(0.50);
  const double p99 = populated.Quantile(0.99);

  LatencyHistogram empty;
  populated.Merge(empty);  // empty into populated
  EXPECT_EQ(populated.count(), 100u);
  EXPECT_DOUBLE_EQ(populated.Quantile(0.50), p50);
  EXPECT_DOUBLE_EQ(populated.Quantile(0.99), p99);

  LatencyHistogram fresh;
  fresh.Merge(populated);  // populated into empty
  EXPECT_EQ(fresh.count(), 100u);
  EXPECT_DOUBLE_EQ(fresh.Quantile(0.50), p50);
  EXPECT_DOUBLE_EQ(fresh.Quantile(0.99), p99);

  LatencyHistogram both;
  both.Merge(empty);  // empty into empty
  EXPECT_EQ(both.count(), 0u);
  EXPECT_DOUBLE_EQ(both.Quantile(0.50), 0.0);
}

}  // namespace
}  // namespace ccsim::runner
