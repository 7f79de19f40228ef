#ifndef SC_STORAGE_THROTTLED_DISK_H_
#define SC_STORAGE_THROTTLED_DISK_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>

#include "engine/table.h"
#include "fault/fault.h"

namespace sc::storage {

/// Bandwidth/latency parameters for the emulated external storage.
struct DiskProfile {
  double read_bw = 519.8e6;   // bytes/second
  double write_bw = 358.9e6;  // bytes/second
  double latency = 175e-6;    // seconds per access
  /// When false, operations run at native speed and take no channel:
  /// there is no emulated device to share (unit tests, compute-bound
  /// benches).
  bool throttle = true;
  /// Number of independent emulated storage channels: at most this many
  /// throttled operations make progress concurrently, each at full
  /// bandwidth. 1 (the default) reproduces the paper's single-channel
  /// NFS model. Ignored when `throttle` is false.
  int channels = 1;
  /// Verify SCC1 checksums on every read (the serving default): a
  /// damaged warehouse file surfaces as storage::CorruptFileError
  /// instead of a garbage table. False skips the checksum arithmetic
  /// (structural bounds checks still apply) — the bench overhead gate
  /// compares the two modes.
  bool verify_reads = true;
};

/// External storage emulation: persists tables as SCC1 files (see
/// storage/format.h) under a root directory and pads each operation's
/// wall time to what the configured device would need for the bytes it
/// moves (sleeping the remainder after the real I/O). This
/// stands in for the paper's NFS + Hive warehouse directory so that
/// read/write short-circuiting produces measurable wall-clock savings at
/// laptop scale.
///
/// Thread-safe: a per-table reader-writer lock lets concurrent reads of
/// the same file overlap while a writer never races a reader. On a
/// throttled disk at most `profile.channels` operations are in flight at
/// once, each holding its channel through the SCC1 codec and the pad;
/// with the default single channel, background materialization genuinely
/// competes with foreground I/O, as in §III-C. An unthrottled disk
/// emulates no device, so it takes no channel and its operations (codec
/// and checksum work included) overlap freely.
class ThrottledDisk {
 public:
  ThrottledDisk(std::string root_dir, DiskProfile profile);

  /// Persists `table` as the SCC1 file `<root>/<name>.sct`; returns the
  /// file's bytes, which the write is charged for. Throws
  /// std::runtime_error on I/O failure.
  std::int64_t WriteTable(const std::string& name,
                          const engine::Table& table);

  /// Loads `<root>/<name>.sct`, or only the columns in `columns` (null:
  /// all; see engine::ColumnSet), and is charged for exactly the bytes
  /// the SCC1 reader consumed: the file minus the payloads it seeked
  /// past. String columns come back dictionary-encoded. With
  /// DiskProfile::verify_reads the read is checksum-verified and throws
  /// storage::CorruptFileError on any damage to what it consumed.
  engine::Table ReadTable(const std::string& name,
                          const engine::ColumnSet* columns = nullptr);

  bool Exists(const std::string& name) const;
  /// Deletes the file if present.
  void Remove(const std::string& name);

  /// Bytes of the stored table file, or -1 if absent.
  std::int64_t FileSize(const std::string& name) const;

  const std::string& root_dir() const { return root_dir_; }
  const DiskProfile& profile() const { return profile_; }

  /// Cumulative seconds spent inside read/write calls (throttled time).
  double total_read_seconds() const;
  double total_write_seconds() const;
  /// Cumulative bytes reads were charged for (deterministic, unlike the
  /// seconds).
  std::int64_t total_read_bytes() const;

  /// Failure injection (tests): the next write of table `name` throws
  /// std::runtime_error instead of persisting (one-shot). Used to verify
  /// that materialization failures propagate through the background
  /// writer into the Controller's run report.
  void InjectWriteFailure(const std::string& name);

  /// Attaches a seeded fault injector: every read/write first probes it
  /// at Site::kDiskRead / kDiskWrite with the table name and throws
  /// fault::FaultError when a rule fires. Corruption rules at kDiskWrite
  /// instead fire *after* the write lands and damage the on-disk file —
  /// a later verified read detects them as CorruptFileError. nullptr
  /// detaches. The injector must outlive the disk.
  void SetFaultInjector(fault::FaultInjector* injector);

 private:
  std::string PathFor(const std::string& name) const;
  /// Sleeps until `elapsed` reaches the target duration for `bytes`.
  void PadToTarget(double start_monotonic, std::int64_t bytes,
                   double bandwidth);
  static double Now();
  std::shared_ptr<std::shared_mutex> FileLock(const std::string& name);
  class ChannelSlot;

  std::string root_dir_;
  DiskProfile profile_;
  mutable std::mutex mutex_;  // guards everything below
  std::condition_variable channel_cv_;
  int active_channels_ = 0;
  std::map<std::string, std::shared_ptr<std::shared_mutex>> file_locks_;
  double total_read_seconds_ = 0.0;
  double total_write_seconds_ = 0.0;
  std::int64_t total_read_bytes_ = 0;
  std::set<std::string> write_failures_;
  fault::FaultInjector* fault_injector_ = nullptr;  // not owned
};

}  // namespace sc::storage

#endif  // SC_STORAGE_THROTTLED_DISK_H_
