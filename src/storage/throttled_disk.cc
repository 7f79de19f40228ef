#include "storage/throttled_disk.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <thread>

#include "storage/format.h"

namespace sc::storage {

namespace fs = std::filesystem;

ThrottledDisk::ThrottledDisk(std::string root_dir, DiskProfile profile)
    : root_dir_(std::move(root_dir)), profile_(profile) {
  profile_.channels = std::max(1, profile_.channels);
  fs::create_directories(root_dir_);
}

std::string ThrottledDisk::PathFor(const std::string& name) const {
  return root_dir_ + "/" + name + ".sct";
}

double ThrottledDisk::Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ThrottledDisk::PadToTarget(double start_monotonic, std::int64_t bytes,
                                double bandwidth) {
  if (!profile_.throttle) return;
  const double target =
      profile_.latency + static_cast<double>(bytes) / bandwidth;
  const double elapsed = Now() - start_monotonic;
  if (elapsed < target) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(target - elapsed));
  }
}

std::shared_ptr<std::shared_mutex> ThrottledDisk::FileLock(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = file_locks_[name];
  if (slot == nullptr) slot = std::make_shared<std::shared_mutex>();
  return slot;
}

/// Holds one channel of a throttled disk for its lifetime; on an
/// unthrottled disk it holds nothing, so operations never queue behind
/// each other's codec work.
class ThrottledDisk::ChannelSlot {
 public:
  explicit ChannelSlot(ThrottledDisk& disk)
      : disk_(disk.profile_.throttle ? &disk : nullptr) {
    if (disk_ == nullptr) return;
    std::unique_lock<std::mutex> lock(disk_->mutex_);
    disk_->channel_cv_.wait(lock, [this] {
      return disk_->active_channels_ < disk_->profile_.channels;
    });
    ++disk_->active_channels_;
  }

  ~ChannelSlot() {
    if (disk_ == nullptr) return;
    {
      std::lock_guard<std::mutex> lock(disk_->mutex_);
      --disk_->active_channels_;
    }
    disk_->channel_cv_.notify_one();
  }

  ChannelSlot(const ChannelSlot&) = delete;
  ChannelSlot& operator=(const ChannelSlot&) = delete;

 private:
  ThrottledDisk* disk_;
};

void ThrottledDisk::InjectWriteFailure(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  write_failures_.insert(name);
}

void ThrottledDisk::SetFaultInjector(fault::FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mutex_);
  fault_injector_ = injector;
}

std::int64_t ThrottledDisk::WriteTable(const std::string& name,
                                       const engine::Table& table) {
  // Lock order: per-file lock, then a channel slot. Writers exclude
  // everything on the same name; operations on distinct files overlap up
  // to the channel count when throttled, and without bound otherwise.
  const std::shared_ptr<std::shared_mutex> file_lock = FileLock(name);
  std::unique_lock<std::shared_mutex> file_guard(*file_lock);
  fault::FaultInjector* injector = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = write_failures_.find(name);
        it != write_failures_.end()) {
      write_failures_.erase(it);
      throw std::runtime_error("injected write failure for table " + name);
    }
    injector = fault_injector_;
  }
  // Faults fire before any bytes land, so a failed write never leaves a
  // partial file behind (the Materializer still Remove()s defensively).
  if (injector != nullptr) {
    injector->MaybeThrow(fault::Site::kDiskWrite, name);
  }
  std::int64_t bytes = 0;
  double elapsed = 0.0;
  {
    const ChannelSlot slot(*this);
    const double start = Now();
    bytes = WriteTableFileCompressed(table, PathFor(name));
    // Post-write corruption probe: the write "succeeded" but the device
    // lied. Damage the landed file; a verified read must catch it.
    if (injector != nullptr) {
      const fault::CorruptionSpec spec =
          injector->ShouldCorrupt(fault::Site::kDiskWrite, name);
      if (spec.kind != fault::CorruptKind::kNone) {
        fault::CorruptFile(PathFor(name), spec);
      }
    }
    PadToTarget(start, bytes, profile_.write_bw);
    elapsed = Now() - start;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  total_write_seconds_ += elapsed;
  return bytes;
}

engine::Table ThrottledDisk::ReadTable(const std::string& name,
                                       const engine::ColumnSet* columns) {
  const std::shared_ptr<std::shared_mutex> file_lock = FileLock(name);
  std::shared_lock<std::shared_mutex> file_guard(*file_lock);
  fault::FaultInjector* injector = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    injector = fault_injector_;
  }
  if (injector != nullptr) {
    injector->MaybeThrow(fault::Site::kDiskRead, name);
  }
  std::optional<engine::Table> table;
  std::int64_t bytes = 0;
  double elapsed = 0.0;
  {
    const ChannelSlot slot(*this);
    const double start = Now();
    table.emplace(ReadTableFileCompressed(
        PathFor(name), ReadOptions{profile_.verify_reads}, columns, &bytes));
    // Charged for the bytes the reader consumed: a projected read seeks
    // past the payloads it does not need and pays only for the rest.
    PadToTarget(start, bytes, profile_.read_bw);
    elapsed = Now() - start;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    total_read_seconds_ += elapsed;
    total_read_bytes_ += bytes;
  }
  return std::move(*table);
}

bool ThrottledDisk::Exists(const std::string& name) const {
  return fs::exists(PathFor(name));
}

void ThrottledDisk::Remove(const std::string& name) {
  std::error_code ec;
  fs::remove(PathFor(name), ec);
  // Drop the per-file lock unless an operation still holds a reference,
  // so run-scoped table names don't accumulate locks forever.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = file_locks_.find(name);
  if (it != file_locks_.end() && it->second.use_count() == 1) {
    file_locks_.erase(it);
  }
}

std::int64_t ThrottledDisk::FileSize(const std::string& name) const {
  std::error_code ec;
  const auto size = fs::file_size(PathFor(name), ec);
  if (ec) return -1;
  return static_cast<std::int64_t>(size);
}

double ThrottledDisk::total_read_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_read_seconds_;
}

double ThrottledDisk::total_write_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_write_seconds_;
}

std::int64_t ThrottledDisk::total_read_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_read_bytes_;
}

}  // namespace sc::storage
