// Spill tier under budget pressure on the string-heavy workload, whose
// outputs enter residency dictionary-encoded: evictions spill, followers
// refill, and the spill / dictionary gauges reach the obs::Registry.
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
/// string-heavy workload.
std::shared_ptr<const workload::MvWorkload> AnnotatedStringHeavy(
    storage::ThrottledDisk* disk) {
  workload::StringHeavyOptions data_options;
  data_options.scale = 0.2;  // 12k events
  data_options.cardinality = workload::StringCardinality::kLow;
  runtime::Controller profiler(disk, runtime::ControllerOptions{});
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

TEST(CompressedResidencyTest, SpillTierGaugesFlowIntoRegistry) {
  // Tight on purpose: the dictionary-encoded MV outputs do not all fit,
  // so evictions spill and followers refill.
  storage::ThrottledDisk disk(FreshDir("treatment"), FastDisk());
  auto wl = AnnotatedStringHeavy(&disk);
  ServiceOptions options;
  options.num_workers = 4;
  options.global_budget = 192LL * 1024;
  options.spill_directory = FreshDir("treatment_spill");
  RefreshService service(&disk, options);
  const std::vector<JobResult> results = SeedThenFollowers(&service, wl);
  for (const JobResult& r : results) {
    ASSERT_TRUE(r.report.ok) << r.report.error;
  }
  const std::int64_t spills = service.shared_catalog().spills();
  const std::int64_t refills = service.shared_catalog().spill_refills();
  EXPECT_GT(spills, 0);
  EXPECT_GT(refills, 0);

  // Dictionary-column and spill-tier gauges flow through the unified
  // registry.
  const std::map<std::string, double> gauges =
      service.registry().Snapshot();
  ASSERT_TRUE(gauges.count("sc_dict_columns_total"));
  ASSERT_TRUE(gauges.count("sc_shared_spill_bytes"));
  ASSERT_TRUE(gauges.count("sc_shared_spills_total"));
  ASSERT_TRUE(gauges.count("sc_shared_refills_total"));
  EXPECT_GT(gauges.at("sc_dict_columns_total"), 0.0);
  EXPECT_EQ(gauges.at("sc_shared_spills_total"),
            static_cast<double>(spills));
  EXPECT_EQ(gauges.at("sc_shared_refills_total"),
            static_cast<double>(refills));
  service.Shutdown();
  EXPECT_EQ(service.shared_catalog().pinned_bytes(), 0);
}

TEST(CompressedResidencyTest, SpillTierServesRefillsUnderPressure) {
  // A budget well under the compressed working set: even encoded MVs
  // evict, so followers are served from the spill tier (refills, counted
  // as hits) instead of recomputing everything.
  storage::ThrottledDisk disk(FreshDir("spill_pressure"), FastDisk());
  auto wl = AnnotatedStringHeavy(&disk);
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
