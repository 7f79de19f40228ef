// Crash-recovery acceptance (ISSUE 10): the SharedCatalog spill tier in
// recover mode survives process teardown — a fresh catalog/service
// adopts the manifest-live spill population and serves it as warm
// cross-job residency with zero recompute — while every form of file
// damage (bit flips, truncation, torn writes, injected corruption) is
// detected by the checksummed formats, counted, and never served. The
// chaos proof: a run with corruption injected into every spill write
// still produces on-disk MVs bit-identical to a fault-free baseline.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "runtime/controller.h"
#include "service/service.h"
#include "storage/shared_catalog.h"
#include "storage/spill_manifest.h"
#include "workload/datagen.h"
#include "workload/workloads.h"

namespace sc::service {
namespace {

namespace fs = std::filesystem;

constexpr int kWidth = 6;
constexpr int kFollowers = 3;

storage::DiskProfile FastDisk() {
  storage::DiskProfile profile;
  profile.throttle = false;
  return profile;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/sc_recovery_" + tag;
  fs::remove_all(dir);
  return dir;
}

engine::TablePtr MakeTable(int salt) {
  std::vector<std::int64_t> ints;
  std::vector<std::string> strs;
  ints.reserve(512);
  strs.reserve(512);
  for (int i = 0; i < 512; ++i) {
    ints.push_back(static_cast<std::int64_t>(salt) * 100000 + i * 7);
    strs.push_back("cat_" + std::to_string((i * (salt + 3)) % 13));
  }
  std::vector<engine::Column> cols;
  cols.push_back(engine::Column::FromInts(std::move(ints)));
  cols.push_back(engine::Column::FromStrings(std::move(strs)));
  return std::make_shared<engine::Table>(
      engine::Schema({engine::Field{"k", engine::DataType::kInt64},
                      engine::Field{"s", engine::DataType::kString}}),
      std::move(cols));
}

std::vector<std::string> SpillFiles(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".scc") {
      files.push_back(entry.path().string());
    }
  }
  return files;
}

storage::SpillOptions RecoverSpill(const std::string& dir) {
  storage::SpillOptions spill;
  spill.directory = dir;
  spill.recover = true;
  return spill;
}

/// Publishes two tables into a budget that only holds one, so the first
/// is evicted to a spill file; returns that table for later comparison.
engine::TablePtr SpillOne(const std::string& dir, bool mark_durable) {
  engine::TablePtr first = MakeTable(1);
  engine::TablePtr second = MakeTable(2);
  const std::int64_t budget = first->ByteSize() * 3 / 2;
  storage::SharedCatalog catalog(budget, 8, RecoverSpill(dir));
  EXPECT_TRUE(catalog.Publish(1, first, first->ByteSize()));
  EXPECT_TRUE(catalog.Publish(2, second, second->ByteSize()));
  EXPECT_EQ(catalog.spills(), 1);
  EXPECT_EQ(catalog.spilled_entries(), 1u);
  if (mark_durable) catalog.MarkDurable(1);
  return first;  // catalog destructs here; recover mode keeps the file
}

TEST(RecoveryTest, CatalogRecoversSpilledEntriesAcrossLifetimes) {
  const std::string dir = FreshDir("unit_roundtrip");
  const engine::TablePtr original = SpillOne(dir, /*mark_durable=*/true);
  ASSERT_EQ(SpillFiles(dir).size(), 1u);
  ASSERT_TRUE(fs::exists(dir + "/" + storage::SpillManifest::kFileName));
  {
    storage::SharedCatalog catalog(original->ByteSize() * 2, 8,
                                   RecoverSpill(dir));
    EXPECT_EQ(catalog.recovered_entries(), 1);
    EXPECT_GT(catalog.recovered_bytes(), 0);
    EXPECT_TRUE(catalog.Contains(1));
    std::int64_t size = 0;
    bool durable = false;
    const engine::TablePtr pinned = catalog.Pin(1, &size, true, &durable);
    ASSERT_NE(pinned, nullptr);
    // Logical equality across the spill's dictionary re-encoding, and
    // the durable upgrade survived the restart via the journal.
    EXPECT_TRUE(*pinned == *original);
    EXPECT_TRUE(durable);
    EXPECT_EQ(catalog.spill_refills(), 1);
    EXPECT_EQ(catalog.hits(), 1);
    EXPECT_EQ(catalog.corrupt_files(), 0);
    catalog.Unpin(1);
  }
  // The refill consumed the spill file and journaled its removal: a
  // third incarnation has nothing to recover.
  storage::SharedCatalog third(original->ByteSize() * 2, 8,
                               RecoverSpill(dir));
  EXPECT_EQ(third.recovered_entries(), 0);
}

TEST(RecoveryTest, DamagedSpillFilesDetectedCountedNeverServed) {
  // Same-size damage (bit flip, torn zero-tail) passes the adoption
  // size check and must be caught by the verified refill instead.
  const fault::CorruptKind kinds[] = {fault::CorruptKind::kBitFlip,
                                      fault::CorruptKind::kTornRename};
  for (const fault::CorruptKind kind : kinds) {
    const std::string dir =
        FreshDir(std::string("unit_") + fault::CorruptKindName(kind));
    const engine::TablePtr original = SpillOne(dir, false);
    const std::vector<std::string> files = SpillFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    fault::CorruptionSpec spec;
    spec.kind = kind;
    spec.offset_u = 0.5;
    spec.bit_u = 0.5;
    fault::CorruptFile(files[0], spec);

    storage::SharedCatalog catalog(original->ByteSize() * 2, 8,
                                   RecoverSpill(dir));
    EXPECT_EQ(catalog.recovered_entries(), 1);
    EXPECT_EQ(catalog.Pin(1), nullptr) << fault::CorruptKindName(kind);
    EXPECT_EQ(catalog.corrupt_files(), 1);
    EXPECT_EQ(catalog.spilled_entries(), 0u);
    EXPECT_TRUE(SpillFiles(dir).empty());  // quarantined = deleted
    EXPECT_EQ(catalog.misses(), 1);        // fell back to recompute
  }
}

TEST(RecoveryTest, TruncatedSpillFileRejectedAtAdoption) {
  const std::string dir = FreshDir("unit_truncate");
  const engine::TablePtr original = SpillOne(dir, false);
  const std::vector<std::string> files = SpillFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  fault::CorruptionSpec spec;
  spec.kind = fault::CorruptKind::kTruncate;
  spec.offset_u = 0.5;
  fault::CorruptFile(files[0], spec);

  // The journal promises more bytes than the file holds: rejected before
  // any read, counted, removed.
  storage::SharedCatalog catalog(original->ByteSize() * 2, 8,
                                 RecoverSpill(dir));
  EXPECT_EQ(catalog.recovered_entries(), 0);
  EXPECT_EQ(catalog.corrupt_files(), 1);
  EXPECT_FALSE(catalog.Contains(1));
  EXPECT_TRUE(SpillFiles(dir).empty());
}

TEST(RecoveryTest, OrphanFilesRemovedAtStartup) {
  const std::string dir = FreshDir("unit_orphans");
  const engine::TablePtr original = SpillOne(dir, false);
  // A spill file whose journal append never landed, and a stray temp
  // file from an interrupted atomic write.
  { std::ofstream out(dir + "/spill_777.scc"); out << "unjournaled"; }
  { std::ofstream out(dir + "/spill_0.scc.tmp"); out << "half-written"; }

  storage::SharedCatalog catalog(original->ByteSize() * 2, 8,
                                 RecoverSpill(dir));
  EXPECT_EQ(catalog.recovered_entries(), 1);
  EXPECT_EQ(catalog.orphans_removed(), 2);
  EXPECT_FALSE(fs::exists(dir + "/spill_777.scc"));
  EXPECT_FALSE(fs::exists(dir + "/spill_0.scc.tmp"));
  // The adopted file itself survived the sweep.
  EXPECT_EQ(SpillFiles(dir).size(), 1u);
}

TEST(RecoveryTest, ShrunkSpillCapDropsOldestEntriesAtRestart) {
  const std::string dir = FreshDir("unit_shrunk_cap");
  engine::TablePtr first = MakeTable(1);
  std::int64_t total_spill_bytes = 0;
  {
    // A budget that holds one table: each publish spills the previous
    // one, leaving keys 1 (oldest) and 2 spilled, both durable.
    storage::SharedCatalog catalog(first->ByteSize() * 3 / 2, 8,
                                   RecoverSpill(dir));
    ASSERT_TRUE(catalog.Publish(1, first, first->ByteSize()));
    for (int key = 2; key <= 3; ++key) {
      engine::TablePtr table = MakeTable(key);
      ASSERT_TRUE(catalog.Publish(key, table, table->ByteSize()));
    }
    ASSERT_EQ(catalog.spilled_entries(), 2u);
    catalog.MarkDurable(1);
    catalog.MarkDurable(2);
    total_spill_bytes = catalog.spill_bytes();
  }
  ASSERT_EQ(SpillFiles(dir).size(), 2u);

  // The restarted catalog's cap holds one file but not both.
  storage::SpillOptions shrunk = RecoverSpill(dir);
  shrunk.max_bytes = total_spill_bytes - 1;
  {
    storage::SharedCatalog catalog(first->ByteSize() * 2, 8, shrunk);
    EXPECT_EQ(catalog.recovered_entries(), 2);
    EXPECT_LE(catalog.spill_bytes(), shrunk.max_bytes);
    EXPECT_EQ(catalog.spilled_entries(), 1u);
    EXPECT_EQ(catalog.corrupt_files(), 0);
    // The oldest entry was dropped: it misses, and its file is gone.
    EXPECT_FALSE(catalog.Contains(1));
    EXPECT_EQ(catalog.Pin(1), nullptr);
    EXPECT_EQ(catalog.misses(), 1);
    EXPECT_TRUE(catalog.Contains(2));
    EXPECT_EQ(SpillFiles(dir).size(), 1u);
  }
  // The journal no longer names the dropped file.
  storage::SpillManifest manifest(dir);
  const storage::SpillManifest::OpenResult opened = manifest.Open();
  ASSERT_EQ(opened.live.size(), 1u);
  EXPECT_EQ(opened.live[0].key, 2u);
  EXPECT_TRUE(opened.live[0].durable);
  EXPECT_EQ(opened.corrupt_lines, 0);
  const std::vector<std::string> after = SpillFiles(dir);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(fs::path(after[0]).filename().string(), opened.live[0].file);
}

TEST(RecoveryTest, ScratchModeStillWipesDirectoryAndJournal) {
  const std::string dir = FreshDir("unit_scratch");
  {
    engine::TablePtr first = MakeTable(1);
    storage::SpillOptions spill;
    spill.directory = dir;  // recover stays false: pre-durability lifecycle
    storage::SharedCatalog catalog(first->ByteSize() * 3 / 2, 8, spill);
    ASSERT_TRUE(catalog.Publish(1, first, first->ByteSize()));
    engine::TablePtr second = MakeTable(2);
    ASSERT_TRUE(catalog.Publish(2, second, second->ByteSize()));
    ASSERT_EQ(catalog.spilled_entries(), 1u);
  }
  EXPECT_TRUE(SpillFiles(dir).empty());
  EXPECT_FALSE(fs::exists(dir + "/" + storage::SpillManifest::kFileName));
}

// ---- Service-level kill-and-restart harness ----

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

std::vector<JobResult> RunJobs(
    RefreshService* service,
    std::shared_ptr<const workload::MvWorkload> wl, const std::string& tag,
    int jobs) {
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < jobs; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = tag + std::to_string(i);
    futures.push_back(service->Submit(std::move(spec)));
  }
  std::vector<JobResult> results;
  for (auto& future : futures) {
    results.push_back(future.get());
    EXPECT_TRUE(results.back().report.ok) << results.back().report.error;
  }
  return results;
}

std::int64_t SumCrossJobHits(const std::vector<JobResult>& results) {
  std::int64_t hits = 0;
  for (const JobResult& r : results) hits += r.report.cross_job_hits;
  return hits;
}

ServiceOptions RecoverableService(const std::string& spill_dir) {
  ServiceOptions options;
  options.num_workers = 2;
  // Well under the compressed working set: spills are guaranteed, and a
  // non-trivial spill population is still parked when the run ends.
  options.global_budget = 64LL * 1024;
  options.spill_directory = spill_dir;
  options.spill_recover = true;
  return options;
}

TEST(RecoveryTest, ServiceRecoversSpillPopulationAcrossRestart) {
  storage::ThrottledDisk disk(FreshDir("svc_restart"), FastDisk());
  auto wl = AnnotatedStringHeavy(&disk);
  const std::string spill_dir = FreshDir("svc_restart_spill");
  const ServiceOptions options = RecoverableService(spill_dir);
  {
    RefreshService service(&disk, options);
    RunJobs(&service, wl, "seed", 1);
    RunJobs(&service, wl, "tenant", kFollowers);
    ASSERT_GT(service.shared_catalog().spills(), 0);
    ASSERT_GT(service.shared_catalog().spilled_entries(), 0u);
    service.Shutdown();
  }
  // The torn-down process left its spill population and journal behind.
  ASSERT_TRUE(
      fs::exists(spill_dir + "/" + storage::SpillManifest::kFileName));
  ASSERT_FALSE(SpillFiles(spill_dir).empty());

  RefreshService service(&disk, options);
  EXPECT_GT(service.shared_catalog().recovered_entries(), 0);
  EXPECT_GT(service.shared_catalog().recovered_bytes(), 0);
  // A cold restart with no seed job: every cross-job hit below is
  // served by the recovered population — zero recompute for those MVs.
  const std::vector<JobResult> after =
      RunJobs(&service, wl, "restart", kFollowers);
  EXPECT_GT(SumCrossJobHits(after), 0);
  EXPECT_GT(service.shared_catalog().spill_refills(), 0);
  EXPECT_EQ(service.shared_catalog().corrupt_files(), 0);

  const std::map<std::string, double> gauges = service.registry().Snapshot();
  ASSERT_TRUE(gauges.count("sc_recovered_entries_total"));
  ASSERT_TRUE(gauges.count("sc_recovered_bytes"));
  ASSERT_TRUE(gauges.count("sc_corrupt_files_total"));
  ASSERT_TRUE(gauges.count("sc_spill_orphans_removed_total"));
  ASSERT_TRUE(gauges.count("sc_manifest_compactions_total"));
  EXPECT_GT(gauges.at("sc_recovered_entries_total"), 0.0);
  EXPECT_EQ(gauges.at("sc_corrupt_files_total"), 0.0);
  service.Shutdown();
}

std::map<std::string, std::string> WarehouseBytes(const std::string& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    files[entry.path().filename().string()] = buffer.str();
  }
  return files;
}

TEST(RecoveryTest, InjectedCorruptionDetectedNeverServedMvsBitIdentical) {
  // Fault-free baseline: same workload, same budget, clean spill tier.
  storage::ThrottledDisk clean_disk(FreshDir("chaos_clean"), FastDisk());
  {
    auto wl = AnnotatedStringHeavy(&clean_disk);
    ServiceOptions options =
        RecoverableService(FreshDir("chaos_clean_spill"));
    RefreshService service(&clean_disk, options);
    RunJobs(&service, wl, "seed", 1);
    RunJobs(&service, wl, "tenant", kFollowers);
    service.Shutdown();
  }

  // Chaos run: every spill write is corrupted the instant it lands.
  storage::ThrottledDisk chaos_disk(FreshDir("chaos"), FastDisk());
  auto wl = AnnotatedStringHeavy(&chaos_disk);
  const std::string spill_dir = FreshDir("chaos_spill");
  fault::FaultInjector injector(/*seed=*/7);
  fault::FaultRule rule;
  rule.site = fault::Site::kSpillWrite;
  rule.probability = 1.0;
  rule.max_fires = 0;  // unlimited
  rule.corrupt = fault::CorruptKind::kBitFlip;
  injector.AddRule(rule);
  {
    ServiceOptions options = RecoverableService(spill_dir);
    options.fault_injector = &injector;
    RefreshService service(&chaos_disk, options);
    RunJobs(&service, wl, "seed", 1);
    RunJobs(&service, wl, "tenant", kFollowers);
    ASSERT_GT(service.shared_catalog().spills(), 0);
    service.Shutdown();
    // Every spill file was damaged as it landed, so every refill attempt
    // in the run hit a verified read that caught it: detected, erased,
    // recomputed — and the jobs above still all succeeded.
    EXPECT_GT(service.shared_catalog().corrupt_files(), 0);
    EXPECT_GT(service.registry().Snapshot().at("sc_corrupt_files_total"),
              0.0);
  }
  ASSERT_GT(injector.total_corruptions(), 0);

  // Second damage window: rebuild a clean spill population on the same
  // directory, tear the service down, then corrupt every surviving file
  // *between* teardown and recovery (bit-rot while the service was
  // down). Same-size bit flips pass the adoption size check; the lazy
  // verified refills after restart must catch every one.
  {
    RefreshService service(&chaos_disk, RecoverableService(spill_dir));
    RunJobs(&service, wl, "rebuild-seed", 1);
    RunJobs(&service, wl, "rebuild", kFollowers);
    ASSERT_GT(service.shared_catalog().spilled_entries(), 0u);
    service.Shutdown();
  }
  const std::vector<std::string> survivors = SpillFiles(spill_dir);
  ASSERT_FALSE(survivors.empty());
  for (const std::string& file : survivors) {
    fault::CorruptionSpec spec;
    spec.kind = fault::CorruptKind::kBitFlip;
    spec.offset_u = 0.5;
    spec.bit_u = 0.5;
    fault::CorruptFile(file, spec);
  }
  {
    RefreshService service(&chaos_disk, RecoverableService(spill_dir));
    EXPECT_GT(service.shared_catalog().recovered_entries(), 0);
    RunJobs(&service, wl, "restart", kFollowers);
    EXPECT_GT(service.shared_catalog().corrupt_files(), 0);
    EXPECT_GT(service.registry().Snapshot().at("sc_corrupt_files_total"),
              0.0);
    service.Shutdown();
  }

  // The chaos proof: despite corrupting every spill file, the final
  // on-disk MVs are bit-identical to the fault-free baseline — damaged
  // residency was detected and recomputed, never written through.
  const auto clean = WarehouseBytes(clean_disk.root_dir());
  const auto chaos = WarehouseBytes(chaos_disk.root_dir());
  ASSERT_EQ(clean.size(), chaos.size());
  for (const auto& [name, bytes] : clean) {
    ASSERT_TRUE(chaos.count(name)) << name;
    EXPECT_TRUE(chaos.at(name) == bytes)
        << name << " differs from the fault-free baseline";
  }
}

}  // namespace
}  // namespace sc::service
