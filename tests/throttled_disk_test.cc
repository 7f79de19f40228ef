#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
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

// Full-range random ints: frame-of-reference varints cannot shrink them,
// so the file takes at least 8 bytes a row.
Table RandomIntTable(std::size_t rows) {
  std::mt19937_64 rng(7);
  std::vector<std::int64_t> values(rows);
  for (std::int64_t& v : values) v = static_cast<std::int64_t>(rng());
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(std::move(values)));
  return Table(Schema({Field{"x", DataType::kInt64}}), std::move(cols));
}

Table SmallTable() { return RandomIntTable(1000); }

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

TEST(ThrottledDiskTest, ProjectedReadChargedForBytesConsumed) {
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_projected",
                     FastProfile());
  const Table ints = SmallTable();
  std::vector<Column> cols;
  cols.push_back(ints.column(0));
  cols.push_back(Column::FromDoubles(std::vector<double>(1000, 0.5)));
  const Table t(Schema({Field{"x", DataType::kInt64},
                        Field{"y", DataType::kFloat64}}),
                std::move(cols));
  const std::int64_t file_bytes = disk.WriteTable("t", t);
  EXPECT_EQ(disk.total_read_bytes(), 0);

  EXPECT_TRUE(disk.ReadTable("t") == t);
  EXPECT_EQ(disk.total_read_bytes(), file_bytes);

  // Reading only "x" seeks past y's raw payload of 8 bytes a row.
  const engine::ColumnSet only_x = {"x"};
  EXPECT_TRUE(disk.ReadTable("t", &only_x) == ints);
  EXPECT_EQ(disk.total_read_bytes(), 2 * file_bytes - 8 * 1000);
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

// Parks WriteTable("a") inside its SCC1 encode, and so inside its
// channel slot when the disk takes one: a FIFO planted at the write's
// temp path takes the bytes, and the constructor returns once the first
// of them arrive. The table is far larger than a pipe, so the writer then
// blocks mid-write until Drain() reads the pipe to EOF.
class BlockedWrite {
 public:
  explicit BlockedWrite(ThrottledDisk& disk) {
    const std::string fifo = disk.root_dir() + "/a.sct.tmp";
    if (mkfifo(fifo.c_str(), 0600) != 0) {
      throw std::runtime_error("mkfifo failed: " + fifo);
    }
    // Non-blocking so the open does not wait for the writer.
    fd_ = open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
    if (fd_ < 0) throw std::runtime_error("cannot open fifo: " + fifo);
    write_ = std::async(std::launch::async, [&disk] {
      return disk.WriteTable("a", RandomIntTable(std::size_t{1} << 18));
    });
    pollfd pending{fd_, POLLIN, 0};
    if (poll(&pending, 1, /*timeout_ms=*/60'000) != 1) {
      ADD_FAILURE() << "the write never reached its temp file";
    }
  }

  // Never leaves the writer blocked (or SIGPIPEd by a closed pipe).
  ~BlockedWrite() {
    if (fd_ < 0) return;
    DrainPipe();
    write_.wait();
  }

  BlockedWrite(const BlockedWrite&) = delete;
  BlockedWrite& operator=(const BlockedWrite&) = delete;

  /// Reads the pipe to EOF so the write completes; returns the write's
  /// result and checks that every byte went through the pipe.
  std::int64_t Drain() {
    const std::int64_t drained = DrainPipe();
    const std::int64_t bytes = write_.get();
    EXPECT_EQ(drained, bytes);
    return bytes;
  }

 private:
  std::int64_t DrainPipe() {
    fcntl(fd_, F_SETFL, 0);
    std::vector<char> buffer(std::size_t{1} << 16);
    std::int64_t drained = 0;
    ssize_t n = 0;
    while ((n = read(fd_, buffer.data(), buffer.size())) > 0) drained += n;
    close(fd_);
    fd_ = -1;
    return drained;
  }

  int fd_ = -1;
  std::future<std::int64_t> write_;
};

ThrottledDisk FreshDisk(const std::string& dir, DiskProfile profile) {
  const std::string root = testing::TempDir() + "/" + dir;
  std::filesystem::remove_all(root);
  return ThrottledDisk(root, profile);
}

TEST(ThrottledDiskTest, UnthrottledDiskDoesNotSerializeOperations) {
  // An unthrottled disk emulates no device, so one operation's codec
  // work never holds up another's, whatever the channel count.
  DiskProfile fast = FastProfile();
  fast.channels = 1;
  ThrottledDisk disk = FreshDisk("sc_disk_unthrottled_overlap", fast);
  disk.WriteTable("b", SmallTable());
  // Declared before the blocked write so that, on an early exit, the
  // write is drained before this future's destructor waits on the read.
  std::future<Table> read;
  BlockedWrite blocked(disk);
  read = std::async(std::launch::async,
                    [&disk] { return disk.ReadTable("b"); });
  const bool read_done =
      read.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  blocked.Drain();
  EXPECT_TRUE(read_done) << "read queued behind a blocked unthrottled write";
  EXPECT_TRUE(read.get() == SmallTable());
}

TEST(ThrottledDiskTest, ThrottledSingleChannelWaitsForBlockedWrite) {
  // The emulated single-channel store keeps its §III-C contention: a
  // read waits while a write holds the one channel, codec included.
  DiskProfile slow;
  slow.read_bw = 1e9;
  slow.write_bw = 1e9;
  slow.latency = 0;
  slow.channels = 1;
  ThrottledDisk disk = FreshDisk("sc_disk_onechan_blocked", slow);
  disk.WriteTable("b", SmallTable());
  std::future<Table> read;
  BlockedWrite blocked(disk);
  read = std::async(std::launch::async,
                    [&disk] { return disk.ReadTable("b"); });
  EXPECT_EQ(read.wait_for(std::chrono::milliseconds(200)),
            std::future_status::timeout);
  EXPECT_GT(blocked.Drain(), std::int64_t{8} << 18);
  EXPECT_TRUE(read.get() == SmallTable());
}

}  // namespace
}  // namespace sc::storage
