// Refresh-Service overhead bench: the three time-ratio gates on the
// serving hot path that no test or perfbench workload pins.
//
//   1. Tracing off: a service with a trace recorder attached but
//      disabled against one with no recorder at all (the
//      zero-overhead-when-off contract), plus tracing on for reference.
//   2. Cancellation: every job carrying a far deadline against plain
//      jobs (the fault-tolerance layer's cost on the fault-free path).
//   3. Checksums: verified SCC1 reads against unverified ones.
//
// Emits JSON (stdout and, by default, BENCH_service_throughput.json).
//
//   $ ./bench/bench_service_throughput [--smoke] [--out FILE]
//                                      [--trace [FILE]]
//
// --smoke runs the CI sizes and gates the exit status: disabled-recorder
// overhead < 10%, cancellation overhead < 10% and checksum overhead
// <= 5%, each the median over reps of a back-to-back pair's ratio.
// --out overrides the JSON path. --trace writes the traced run's Chrome
// trace (default BENCH_trace.json) for chrome://tracing / trace_inspect.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "runtime/controller.h"
#include "service/service.h"
#include "storage/format.h"
#include "storage/throttled_disk.h"
#include "workload/datagen.h"

namespace sc::bench {
namespace {

using WorkloadSet =
    std::vector<std::shared_ptr<const workload::MvWorkload>>;

/// One rep of a steady-state service config: a fresh service warms its
/// plan cache with one untimed job per workload, then `jobs` jobs from 4
/// tenants over the mixed workloads are timed. With `with_deadline`
/// every timed job carries a far deadline. When `registry_delta` is set
/// it receives the registry's change over the timed segment. Returns
/// jobs/s.
double RunServiceConfig(storage::ThrottledDisk* disk, const WorkloadSet& wls,
                        const service::ServiceOptions& options, int jobs,
                        bool with_deadline,
                        std::map<std::string, double>* registry_delta) {
  service::RefreshService service(disk, options);

  for (const auto& wl : wls) {
    service::RefreshJobSpec warmup;
    warmup.workload = wl;
    warmup.tenant = "warmup";
    warmup.requested_budget = options.global_budget / 8;
    service.Submit(warmup).get();
  }
  const std::map<std::string, double> before =
      registry_delta != nullptr ? service.registry().Snapshot()
                                : std::map<std::string, double>{};

  WallTimer timer;
  std::vector<std::future<service::JobResult>> futures;
  futures.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    service::RefreshJobSpec spec;
    spec.workload = wls[static_cast<std::size_t>(i) % wls.size()];
    spec.tenant = "tenant" + std::to_string(i % 4);
    spec.requested_budget = options.global_budget / 8;
    if (with_deadline) spec.deadline_seconds = 3600.0;  // never expires
    futures.push_back(service.Submit(std::move(spec)));
  }
  int failed = 0;
  for (auto& future : futures) {
    if (future.get().status != service::JobStatus::kOk) ++failed;
  }
  const double wall = timer.Seconds();
  if (failed > 0) {
    std::cerr << "warning: " << failed << " timed jobs failed\n";
  }
  if (registry_delta != nullptr) {
    *registry_delta =
        obs::SnapshotDelta(before, service.registry().Snapshot());
  }
  return jobs / wall;
}

/// The tracing-overhead config: a 4-tenant, 4-lane service with the
/// shared catalog on, so the off-vs-on ratio isolates the recorder cost.
service::ServiceOptions TraceOptions(obs::TraceRecorder* trace) {
  service::ServiceOptions options;
  options.num_workers = 8;  // 2 inter-job workers × up to 4 lanes
  options.max_intra_job_lanes = 4;
  options.global_budget = 32LL * 1024 * 1024;
  options.trace = trace;
  return options;
}

/// The cancellation-overhead config: the steady-state 4-worker service.
/// The token itself is always wired (the service polls it at every
/// stage / node / morsel boundary); a deadline additionally makes each
/// poll read the monotonic clock, so deadline-vs-plain bounds the full
/// per-boundary cost of the fault-tolerance layer.
service::ServiceOptions CancelOptions() {
  service::ServiceOptions options;
  options.num_workers = 4;
  options.global_budget = 32LL * 1024 * 1024;
  return options;
}

/// Median of `values` (the upper one for an even count); 0 when empty.
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

/// Jobs/s of two service configs measured in back-to-back pairs, one
/// pair per rep.
struct PairedJobsPerSecond {
  std::vector<double> base;
  std::vector<double> other;

  /// Median over pairs of the fraction of `base` jobs/s lost by `other`.
  /// A pair shares the host's momentary speed, so its ratio cancels what
  /// a shared host does to both sides; one lucky ~1 ms segment moves a
  /// best-of-N maximum but not the median.
  double OverheadFraction() const {
    std::vector<double> losses;
    for (std::size_t i = 0; i < base.size() && i < other.size(); ++i) {
      if (base[i] > 0.0) losses.push_back(1.0 - other[i] / base[i]);
    }
    return Median(std::move(losses));
  }
};

/// Runs `reps` back-to-back pairs of `run_base` and `run_other`,
/// alternating which side runs first so that neither always inherits
/// the other's warm caches or pays for its teardown.
template <typename RunBase, typename RunOther>
PairedJobsPerSecond RunPairs(int reps, RunBase run_base,
                             RunOther run_other) {
  PairedJobsPerSecond pairs;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep % 2 == 0) {
      pairs.base.push_back(run_base());
      pairs.other.push_back(run_other());
    } else {
      pairs.other.push_back(run_other());
      pairs.base.push_back(run_base());
    }
  }
  return pairs;
}

struct ChecksumOverheadSample {
  std::int64_t bytes = 0;
  double unverified_seconds = 0.0;  // best-of-reps single deserialize
  double verified_seconds = 0.0;
  /// Median over reps of (verified / unverified - 1) for back-to-back
  /// read pairs.
  double overhead_fraction = 0.0;
};

/// Measures the cost of checksum verification on the format read path:
/// one representative table written to a file once, then read back
/// through the file wrapper (the serving path — warehouse reads and
/// spill refills both go through it) in back-to-back unverified and
/// verified pairs, after one untimed warm-up pair and alternating which
/// read runs first. The overhead is the median of the per-pair ratios: a
/// pair shares the host's momentary speed, which on a shared host swings
/// single reads by more than the 5% being gated, so best-of-N floors
/// taken from different moments are not comparable. The CRC32C
/// arithmetic rides along with a read that already touches every byte,
/// so the gate holds verified reads within 5% of the fast path.
ChecksumOverheadSample RunChecksumOverhead(const engine::Table& table,
                                           int reps) {
  ChecksumOverheadSample sample;
  const std::string path =
      (std::filesystem::temp_directory_path() / "sc_bench_checksum.scc")
          .string();
  sample.bytes = storage::WriteTableFileCompressed(table, path);
  auto read_once = [&](bool verify) {
    WallTimer timer;
    const engine::Table loaded =
        storage::ReadTableFileCompressed(path, storage::ReadOptions{verify});
    const double seconds = timer.Seconds();
    if (loaded.num_rows() != table.num_rows()) {
      std::cerr << "checksum-overhead read returned wrong row count\n";
    }
    return seconds;
  };
  // One untimed warm-up pair: the first reads after the write pay for
  // cold caches and a fresh heap, which no later pair does.
  read_once(false);
  read_once(true);
  std::vector<double> ratios;
  sample.unverified_seconds = std::numeric_limits<double>::infinity();
  sample.verified_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    // Alternate which read goes first, as RunPairs does.
    double unverified = 0.0;
    double verified = 0.0;
    if (rep % 2 == 0) {
      unverified = read_once(false);
      verified = read_once(true);
    } else {
      verified = read_once(true);
      unverified = read_once(false);
    }
    sample.unverified_seconds = std::min(sample.unverified_seconds, unverified);
    sample.verified_seconds = std::min(sample.verified_seconds, verified);
    if (unverified > 0.0) ratios.push_back(verified / unverified);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (!ratios.empty()) sample.overhead_fraction = Median(ratios) - 1.0;
  return sample;
}

/// The checksum bench table: ints, doubles and a low-cardinality string
/// column. Sized so that one unverified read takes over 10 ms (~17 MB of
/// SCC1): with a shorter denominator, timer and scheduler noise alone
/// swing the ratio by several percent.
engine::Table ChecksumTable() {
  const std::int64_t kRows = 1'000'000;
  std::vector<std::int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strs;
  ints.reserve(static_cast<std::size_t>(kRows));
  doubles.reserve(static_cast<std::size_t>(kRows));
  strs.reserve(static_cast<std::size_t>(kRows));
  for (std::int64_t i = 0; i < kRows; ++i) {
    ints.push_back(i * 2654435761LL);
    doubles.push_back(static_cast<double>(i) * 0.5);
    strs.push_back("cat_" + std::to_string(i % 64));
  }
  std::vector<engine::Column> cols;
  cols.push_back(engine::Column::FromInts(std::move(ints)));
  cols.push_back(engine::Column::FromDoubles(std::move(doubles)));
  cols.push_back(engine::Column::FromStrings(std::move(strs)));
  return engine::Table(
      engine::Schema({engine::Field{"k", engine::DataType::kInt64},
                      engine::Field{"v", engine::DataType::kFloat64},
                      engine::Field{"s", engine::DataType::kString}}),
      std::move(cols));
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool write_trace = false;
  std::string out_path = "BENCH_service_throughput.json";
  std::string trace_path = "BENCH_trace.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      write_trace = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') trace_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--smoke] [--out FILE] [--trace [FILE]]\n";
      return 2;
    }
  }

  Banner("Refresh-Service overhead: tracing off, cancellation, checksums",
         "serving-layer extension: the cost of observability and fault "
         "tolerance on the fault-free hot path (no paper counterpart)");

  const std::string dir =
      (std::filesystem::temp_directory_path() / "sc_bench_service")
          .string();
  std::filesystem::remove_all(dir);
  storage::DiskProfile profile;
  profile.throttle = false;  // compute-bound, not emulation-bound
  storage::ThrottledDisk disk(dir, profile);

  workload::DataGenOptions data_options;
  data_options.scale = 0.03;
  runtime::Controller profiler(&disk, runtime::ControllerOptions{});
  profiler.LoadBaseTables(workload::GenerateTpcdsData(data_options));
  WorkloadSet wls;
  for (workload::MvWorkload& wl : workload::StandardWorkloads()) {
    auto shared = std::make_shared<workload::MvWorkload>(std::move(wl));
    const runtime::RunReport profiled =
        profiler.ProfileAndAnnotate(shared.get());
    if (!profiled.ok) {
      std::cerr << "profiling failed: " << profiled.error << "\n";
      return 1;
    }
    wls.push_back(std::move(shared));
  }

  // -------------------------------------------------------------------
  // 1. Tracing overhead: the identical 4-tenant / 4-lane config with no
  //    recorder (off), a disabled recorder and tracing on, one of each
  //    per rep. Disabled is the production tracing-off path (one branch
  //    per boundary — the zero-overhead-when-off contract, gated under
  //    --smoke as a paired off/disabled ratio); on shows the recorder's
  //    cost and, with --trace, emits the Chrome trace artifact plus the
  //    metrics registry's per-segment snapshot delta.
  // -------------------------------------------------------------------
  // Smoke timed segments are ~1ms, so a single pair is noise-dominated;
  // the gate takes the median over many cheap pairs.
  const int kTraceJobs = smoke ? 16 : 24;
  const int kTraceReps = smoke ? 21 : 11;
  std::vector<double> trace_on_runs;
  std::unique_ptr<obs::TraceRecorder> recorder;
  std::map<std::string, double> registry_delta;
  const PairedJobsPerSecond trace_pairs = RunPairs(
      kTraceReps,
      [&] {
        return RunServiceConfig(&disk, wls, TraceOptions(nullptr),
                                kTraceJobs, false, nullptr);
      },
      [&] {
        obs::TraceRecorderOptions disabled_options;
        disabled_options.enabled = false;
        obs::TraceRecorder disabled(disabled_options);
        const double jps =
            RunServiceConfig(&disk, wls, TraceOptions(&disabled),
                             kTraceJobs, false, nullptr);
        // Tracing on, for reference: a fresh recorder per rep, so the
        // artifact holds exactly one service run's spans and job ids
        // are unambiguous.
        recorder = std::make_unique<obs::TraceRecorder>();
        registry_delta.clear();
        trace_on_runs.push_back(
            RunServiceConfig(&disk, wls, TraceOptions(recorder.get()),
                             kTraceJobs, false, &registry_delta));
        return jps;
      });
  const double trace_off_jps = Median(trace_pairs.base);
  const double trace_disabled_jps = Median(trace_pairs.other);
  const double trace_on_jps = Median(trace_on_runs);
  const double disabled_overhead = trace_pairs.OverheadFraction();
  const double trace_overhead =
      PairedJobsPerSecond{trace_pairs.base, trace_on_runs}
          .OverheadFraction();
  TablePrinter trace_table({"tracing", "median jobs/s", "median overhead"});
  trace_table.AddRow({"off", StrFormat("%.1f", trace_off_jps), "-"});
  trace_table.AddRow({"disabled", StrFormat("%.1f", trace_disabled_jps),
                      StrFormat("%.1f%%", 100.0 * disabled_overhead)});
  trace_table.AddRow({"on", StrFormat("%.1f", trace_on_jps),
                      StrFormat("%.1f%%", 100.0 * trace_overhead)});
  trace_table.Print(std::cout);
  std::cout << StrFormat(
      "events recorded: %zu (dropped %lld)\n", recorder->event_count(),
      static_cast<long long>(recorder->dropped()));
  std::cout << "registry deltas over the traced segment (nonzero):\n";
  int printed = 0;
  for (const auto& [name, delta] : registry_delta) {
    if (delta == 0.0 || printed >= 14) continue;
    std::cout << StrFormat("  %-44s %+.1f\n", name.c_str(), delta);
    ++printed;
  }
  if (write_trace) {
    if (obs::WriteChromeTraceFile(*recorder, trace_path)) {
      std::cout << "trace written to " << trace_path
                << " (chrome://tracing, ui.perfetto.dev, or "
                   "trace_inspect)\n";
    } else {
      std::cerr << "error: cannot write trace to " << trace_path << "\n";
      return 1;
    }
  }

  // -------------------------------------------------------------------
  // 2. Cancellation / deadline overhead: the same steady-state service
  //    with plain jobs vs every job carrying a far deadline, in
  //    back-to-back pairs. The cancel token is polled at every stage /
  //    node / morsel / materialize boundary either way; a live deadline
  //    makes each poll also read the clock. The paired ratio is the
  //    price of the fault-tolerance layer on the fault-free hot path,
  //    gated loosely under --smoke (smoke segments are noisy); on quiet
  //    hardware it measured -3.6%, the noise floor.
  // -------------------------------------------------------------------
  const int kCancelJobs = smoke ? 16 : 24;
  const int kCancelReps = smoke ? 21 : 11;
  const PairedJobsPerSecond cancel_pairs = RunPairs(
      kCancelReps,
      [&] {
        return RunServiceConfig(&disk, wls, CancelOptions(), kCancelJobs,
                                false, nullptr);
      },
      [&] {
        return RunServiceConfig(&disk, wls, CancelOptions(), kCancelJobs,
                                true, nullptr);
      });
  const double cancel_plain_jps = Median(cancel_pairs.base);
  const double cancel_deadline_jps = Median(cancel_pairs.other);
  const double cancel_overhead = cancel_pairs.OverheadFraction();
  TablePrinter cancel_table({"jobs", "median jobs/s", "median overhead"});
  cancel_table.AddRow(
      {"plain", StrFormat("%.1f", cancel_plain_jps), "-"});
  cancel_table.AddRow({"deadline", StrFormat("%.1f", cancel_deadline_jps),
                       StrFormat("%.1f%%", 100.0 * cancel_overhead)});
  std::cout << "\n";
  cancel_table.Print(std::cout);

  // -------------------------------------------------------------------
  // 3. Checksum overhead: the verifying read mode (the serving default)
  //    must stay within 5% of the unverified fast path, since the CRC
  //    arithmetic rides along with parsing that already touches every
  //    byte.
  // -------------------------------------------------------------------
  // The smoke gate rides on these timings, so it takes more reps than
  // the full run: the median ratio steadies with N.
  const int kChecksumReps = smoke ? 21 : 11;
  const ChecksumOverheadSample checksum =
      RunChecksumOverhead(ChecksumTable(), kChecksumReps);
  TablePrinter checksum_table(
      {"bytes", "best read (ms)", "best verified (ms)", "median overhead"});
  checksum_table.AddRow(
      {FormatBytes(checksum.bytes),
       StrFormat("%.2f", 1e3 * checksum.unverified_seconds),
       StrFormat("%.2f", 1e3 * checksum.verified_seconds),
       StrFormat("%.1f%%", 100.0 * checksum.overhead_fraction)});
  std::cout << "\n";
  checksum_table.Print(std::cout);

  std::ostringstream json;
  json << "{\"bench\":\"service_throughput\"";
  json << StrFormat(
      ",\"trace_overhead\":{\"jobs\":%d,"
      "\"jobs_per_second_off\":%.3f,"
      "\"jobs_per_second_disabled\":%.3f,"
      "\"jobs_per_second_on\":%.3f,"
      "\"disabled_overhead_fraction\":%.4f,"
      "\"overhead_fraction\":%.4f,\"events\":%lld,\"dropped\":%lld}",
      kTraceJobs, trace_off_jps, trace_disabled_jps, trace_on_jps,
      disabled_overhead, trace_overhead,
      static_cast<long long>(recorder->event_count()),
      static_cast<long long>(recorder->dropped()));
  json << StrFormat(
      ",\"cancel_overhead\":{\"jobs\":%d,"
      "\"jobs_per_second_plain\":%.3f,"
      "\"jobs_per_second_deadline\":%.3f,"
      "\"overhead_fraction\":%.4f}",
      kCancelJobs, cancel_plain_jps, cancel_deadline_jps,
      cancel_overhead);
  json << StrFormat(
      ",\"durability\":{\"checksum_overhead\":{\"bytes\":%lld,"
      "\"unverified_seconds\":%.6f,\"verified_seconds\":%.6f,"
      "\"overhead_fraction\":%.4f}}}",
      static_cast<long long>(checksum.bytes), checksum.unverified_seconds,
      checksum.verified_seconds, checksum.overhead_fraction);
  std::cout << "\n" << json.str() << "\n";
  std::ofstream(out_path) << json.str() << "\n";

  if (!smoke) return 0;
  // The --smoke gates. Bounds are loose for smoke-scale noise on shared
  // CI hosts; a gate that fails names its measured fraction.
  struct Gate {
    const char* name;
    double fraction;
    bool ok;
    const char* bound;
  };
  const Gate gates[] = {
      {"tracing-off (disabled recorder) overhead", disabled_overhead,
       disabled_overhead < 0.10, "< 10%"},
      {"cancellation/deadline overhead", cancel_overhead,
       cancel_overhead < 0.10, "< 10%"},
      {"checksum (verified read) overhead", checksum.overhead_fraction,
       checksum.overhead_fraction <= 0.05, "<= 5%"},
  };
  bool all_ok = true;
  std::cout << "\n";
  for (const Gate& gate : gates) {
    (gate.ok ? std::cout : std::cerr) << StrFormat(
        "gate: %s %.1f%% (bound %s): %s\n", gate.name,
        100.0 * gate.fraction, gate.bound, gate.ok ? "ok" : "FAILED");
    all_ok = all_ok && gate.ok;
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace sc::bench

int main(int argc, char** argv) { return sc::bench::Main(argc, argv); }
