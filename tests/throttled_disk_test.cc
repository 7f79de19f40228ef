#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>

#include "storage/throttled_disk.h"

namespace sc::storage {
namespace {

using engine::Column;
using engine::DataType;
using engine::Field;
using engine::Schema;
using engine::Table;

// 1000 full-range random ints: frame-of-reference varints cannot shrink
// them, so the file stays above 8 KB.
Table SmallTable() {
  std::mt19937_64 rng(7);
  std::vector<std::int64_t> values(1000);
  for (std::int64_t& v : values) v = static_cast<std::int64_t>(rng());
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(std::move(values)));
  return Table(Schema({Field{"x", DataType::kInt64}}), std::move(cols));
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

DiskProfile FastProfile() {
  DiskProfile profile;
  profile.throttle = false;
  return profile;
}

TEST(ThrottledDiskTest, WriteReadRoundTrip) {
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_rt", FastProfile());
  const Table t = SmallTable();
  const std::int64_t bytes = disk.WriteTable("t1", t);
  EXPECT_GT(bytes, 8000);
  EXPECT_TRUE(disk.Exists("t1"));
  EXPECT_EQ(disk.FileSize("t1"), bytes);
  const Table loaded = disk.ReadTable("t1");
  EXPECT_TRUE(loaded == t);
}

TEST(ThrottledDiskTest, PlainStringsReadBackDictionaryEncoded) {
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_strings", FastProfile());
  std::vector<std::string> values;
  for (int i = 0; i < 500; ++i) values.push_back("s" + std::to_string(i % 7));
  std::vector<Column> cols;
  cols.push_back(Column::FromStrings(std::move(values)));
  const Table t(Schema({Field{"s", DataType::kString}}), std::move(cols));
  ASSERT_FALSE(t.column(0).dictionary_encoded());
  disk.WriteTable("t", t);
  const Table loaded = disk.ReadTable("t");
  EXPECT_TRUE(loaded == t);
  EXPECT_TRUE(loaded.column(0).dictionary_encoded());
}

TEST(ThrottledDiskTest, RemoveAndMissing) {
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_rm", FastProfile());
  disk.WriteTable("t", SmallTable());
  disk.Remove("t");
  EXPECT_FALSE(disk.Exists("t"));
  EXPECT_EQ(disk.FileSize("t"), -1);
  EXPECT_THROW(disk.ReadTable("t"), std::runtime_error);
  disk.Remove("t");  // idempotent
}

TEST(ThrottledDiskTest, ThrottlePadsDuration) {
  // 8KB at 100 KB/s -> at least ~80ms.
  DiskProfile slow;
  slow.write_bw = 100e3;
  slow.read_bw = 100e3;
  slow.latency = 0;
  slow.throttle = true;
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_slow", slow);
  const auto start = std::chrono::steady_clock::now();
  disk.WriteTable("t", SmallTable());
  const double elapsed = SecondsSince(start);
  EXPECT_GT(elapsed, 0.05);
  EXPECT_GT(disk.total_write_seconds(), 0.05);
}

TEST(ThrottledDiskTest, ThrottledReadChargedForFileBytes) {
  DiskProfile slow;
  slow.read_bw = 100e3;
  slow.write_bw = 1e9;
  slow.latency = 0.01;
  slow.throttle = true;
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_slow_read", slow);
  disk.WriteTable("t", SmallTable());
  const std::int64_t file_bytes = disk.FileSize("t");
  ASSERT_GE(file_bytes, 8000);
  const auto start = std::chrono::steady_clock::now();
  disk.ReadTable("t");
  EXPECT_GE(SecondsSince(start),
            slow.latency + static_cast<double>(file_bytes) / slow.read_bw);
}

TEST(ThrottledDiskTest, AccumulatesTimers) {
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_timers", FastProfile());
  disk.WriteTable("a", SmallTable());
  disk.ReadTable("a");
  EXPECT_GT(disk.total_write_seconds(), 0.0);
  EXPECT_GT(disk.total_read_seconds(), 0.0);
}

TEST(ThrottledDiskTest, OverwriteReplacesContent) {
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_ow", FastProfile());
  disk.WriteTable("t", SmallTable());
  std::vector<Column> cols;
  cols.push_back(Column::FromInts({1}));
  const Table tiny(Schema({Field{"x", DataType::kInt64}}), std::move(cols));
  disk.WriteTable("t", tiny);
  EXPECT_EQ(disk.ReadTable("t").num_rows(), 1u);
}


TEST(ThrottledDiskTest, MultiChannelReadsOverlap) {
  // Two concurrent reads of one table on a 2-channel throttled disk
  // finish in ~one padded read time; a single channel would need two.
  DiskProfile slow;
  slow.read_bw = 1e9;
  slow.write_bw = 1e9;
  slow.latency = 0.25;  // 250ms floor per access dominates
  slow.channels = 2;
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_channels", slow);
  disk.WriteTable("t", SmallTable());
  const auto start = std::chrono::steady_clock::now();
  std::thread other([&] { disk.ReadTable("t"); });
  disk.ReadTable("t");
  other.join();
  const double elapsed = SecondsSince(start);
  // Overlapped: well under the 500ms a single channel would need, with
  // 200ms slack for thread spawn and scheduling on loaded runners.
  EXPECT_LT(elapsed, 0.45);
}

TEST(ThrottledDiskTest, SingleChannelSerializesReads) {
  DiskProfile slow;
  slow.read_bw = 1e9;
  slow.write_bw = 1e9;
  slow.latency = 0.05;
  slow.channels = 1;
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_onechan", slow);
  disk.WriteTable("t", SmallTable());
  const auto start = std::chrono::steady_clock::now();
  std::thread other([&] { disk.ReadTable("t"); });
  disk.ReadTable("t");
  other.join();
  const double elapsed = SecondsSince(start);
  EXPECT_GT(elapsed, 0.095);
}

}  // namespace
}  // namespace sc::storage
