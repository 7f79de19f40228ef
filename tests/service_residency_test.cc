// Compressed-residency acceptance (ISSUE 9): at a fixed global budget on
// the string-heavy workload, dictionary compression + the SharedCatalog
// spill/refill tier must yield strictly more cross-job hits and strictly
// less follower recompute than the plain-string, no-spill baseline (the
// PR-8 service behaviour, reproduced via the compress_residency /
// spill_directory knobs). Also pins the obs::Registry export of the new
// spill / dictionary gauges.
#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/controller.h"
#include "service/service.h"
#include "workload/datagen.h"
#include "workload/workloads.h"

namespace sc::service {
namespace {

constexpr int kWidth = 6;
constexpr int kFollowers = 3;

storage::DiskProfile FastDisk() {
  storage::DiskProfile profile;
  profile.throttle = false;
  return profile;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/sc_residency_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Loads the string-heavy tables into `disk` and returns the annotated
/// string-heavy workload. Profiling honours `compress` so each service
/// config is fed estimates matching its own runtime representation
/// (estimating compressed sizes and then running uncompressed would
/// overrun the Memory Catalog).
std::shared_ptr<const workload::MvWorkload> AnnotatedStringHeavy(
    storage::ThrottledDisk* disk, bool compress) {
  workload::StringHeavyOptions data_options;
  data_options.scale = 0.2;  // 12k events
  data_options.cardinality = workload::StringCardinality::kLow;
  runtime::ControllerOptions profile_options;
  profile_options.compress_residency = compress;
  runtime::Controller profiler(disk, profile_options);
  profiler.LoadBaseTables(workload::GenerateStringHeavyData(data_options));
  auto wl = std::make_shared<workload::MvWorkload>(
      workload::BuildStringHeavySynthetic(kWidth));
  const runtime::RunReport report = profiler.ProfileAndAnnotate(wl.get());
  EXPECT_TRUE(report.ok) << report.error;
  return wl;
}

std::vector<JobResult> SeedThenFollowers(RefreshService* service,
                                         std::shared_ptr<const workload::MvWorkload> wl) {
  RefreshJobSpec seed;
  seed.workload = wl;
  seed.tenant = "seed";
  std::vector<JobResult> results;
  results.push_back(service->Submit(seed).get());
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < kFollowers; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "tenant" + std::to_string(i);
    futures.push_back(service->Submit(std::move(spec)));
  }
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

std::int64_t SumCrossJobHits(const std::vector<JobResult>& results) {
  std::int64_t hits = 0;
  for (const JobResult& r : results) hits += r.report.cross_job_hits;
  return hits;
}

/// Follower nodes that were computed rather than reused from the shared
/// catalog: the recompute work, counted instead of timed so that load on
/// the host cannot flip the comparison.
int FollowerRecomputedNodes(const std::vector<JobResult>& results) {
  int recomputed = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    for (const runtime::NodeRunStats& node : results[i].report.nodes) {
      if (!node.reused_cross_job) ++recomputed;
    }
  }
  return recomputed;
}

TEST(CompressedResidencyTest, MoreHitsAndLessRecomputeThanPlainBaseline) {
  // Tight on purpose: the plain-string MV outputs do not all fit, the
  // dictionary-encoded ones mostly do, and what still overflows lands in
  // the spill tier instead of being recomputed.
  const std::int64_t global_budget = 192LL * 1024;

  // Treatment: compressed residency + spill tier (the defaults plus a
  // spill directory).
  storage::ThrottledDisk disk(FreshDir("treatment"), FastDisk());
  auto wl = AnnotatedStringHeavy(&disk, /*compress=*/true);
  std::vector<JobResult> treatment;
  std::int64_t treatment_spills = 0;
  std::int64_t treatment_refills = 0;
  {
    ServiceOptions options;
    options.num_workers = 4;
    options.global_budget = global_budget;
    options.spill_directory = FreshDir("treatment_spill");
    ASSERT_TRUE(options.compress_residency);
    ASSERT_TRUE(options.share_catalog);
    RefreshService service(&disk, options);
    treatment = SeedThenFollowers(&service, wl);
    for (const JobResult& r : treatment) {
      ASSERT_TRUE(r.report.ok) << r.report.error;
    }
    treatment_spills = service.shared_catalog().spills();
    treatment_refills = service.shared_catalog().spill_refills();

    // The new monitoring surface: dictionary-column and spill-tier
    // gauges flow through the unified registry.
    const std::map<std::string, double> gauges =
        service.registry().Snapshot();
    ASSERT_TRUE(gauges.count("sc_dict_columns_total"));
    ASSERT_TRUE(gauges.count("sc_shared_spill_bytes"));
    ASSERT_TRUE(gauges.count("sc_shared_spills_total"));
    ASSERT_TRUE(gauges.count("sc_shared_refills_total"));
    EXPECT_GT(gauges.at("sc_dict_columns_total"), 0.0);
    EXPECT_EQ(gauges.at("sc_shared_spills_total"),
              static_cast<double>(treatment_spills));
    EXPECT_EQ(gauges.at("sc_shared_refills_total"),
              static_cast<double>(treatment_refills));
    service.Shutdown();
    EXPECT_EQ(service.shared_catalog().pinned_bytes(), 0);
  }

  // Baseline: the PR-8 representation — plain strings, evictions drop.
  storage::ThrottledDisk base_disk(FreshDir("baseline"), FastDisk());
  auto base_wl = AnnotatedStringHeavy(&base_disk, /*compress=*/false);
  std::vector<JobResult> baseline;
  {
    ServiceOptions options;
    options.num_workers = 4;
    options.global_budget = global_budget;
    options.compress_residency = false;
    RefreshService service(&base_disk, options);
    baseline = SeedThenFollowers(&service, base_wl);
    for (const JobResult& r : baseline) {
      ASSERT_TRUE(r.report.ok) << r.report.error;
    }
    EXPECT_EQ(service.shared_catalog().spills(), 0);
    service.Shutdown();
  }

  // The acceptance criterion: strictly more cross-job service and
  // strictly less follower recompute at the same budget, with the spill
  // tier taking what still overflows and serving it back.
  EXPECT_GT(SumCrossJobHits(treatment), SumCrossJobHits(baseline));
  EXPECT_LT(FollowerRecomputedNodes(treatment),
            FollowerRecomputedNodes(baseline));
  EXPECT_GT(treatment_spills, 0);
  EXPECT_GT(treatment_refills, 0);
}

TEST(CompressedResidencyTest, SpillTierServesRefillsUnderPressure) {
  // A budget well under the compressed working set: even encoded MVs
  // evict, so followers are served from the spill tier (refills, counted
  // as hits) instead of recomputing everything.
  storage::ThrottledDisk disk(FreshDir("spill_pressure"), FastDisk());
  auto wl = AnnotatedStringHeavy(&disk, /*compress=*/true);
  ServiceOptions options;
  options.num_workers = 2;
  options.global_budget = 64LL * 1024;
  options.spill_directory = FreshDir("spill_pressure_dir");
  RefreshService service(&disk, options);
  const std::vector<JobResult> results = SeedThenFollowers(&service, wl);
  for (const JobResult& r : results) {
    ASSERT_TRUE(r.report.ok) << r.report.error;
  }
  EXPECT_GT(service.shared_catalog().spills(), 0);
  EXPECT_GT(service.shared_catalog().spill_refills(), 0);
  // Refills served content without recompute: they count as hits.
  EXPECT_GT(service.shared_catalog().hits(), 0);
  service.Shutdown();
  EXPECT_EQ(service.shared_catalog().pinned_bytes(), 0);
}

}  // namespace
}  // namespace sc::service
