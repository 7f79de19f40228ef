// Multi-tenant serving: run many refresh jobs from several tenants
// through the RefreshService, which arbitrates one shared Memory-Catalog
// budget, caches plans, and reports per-tenant metrics.
//
//   $ ./examples/multi_tenant_service
#include <filesystem>
#include <iostream>
#include <memory>
#include <vector>

#include "api/sc.h"

int main() {
  using namespace sc;

  // External storage shared by every worker (unthrottled for the demo).
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sc_service_example")
          .string();
  std::filesystem::remove_all(dir);
  storage::DiskProfile profile;
  profile.throttle = false;
  storage::ThrottledDisk disk(dir, profile);

  // Ingest tiny TPC-DS base tables and profile the workload once so the
  // graph carries observed sizes, compute times, and speedup scores.
  workload::DataGenOptions data_options;
  data_options.scale = 0.03;
  runtime::Controller profiler(&disk, runtime::ControllerOptions{});
  profiler.LoadBaseTables(workload::GenerateTpcdsData(data_options));
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  const runtime::RunReport profiled = profiler.ProfileAndAnnotate(wl.get());
  if (!profiled.ok) {
    std::cerr << "profiling failed: " << profiled.error << "\n";
    return 1;
  }

  // A 4-worker service with a 16MiB global Memory Catalog. The "batch"
  // tenant is quota-capped to a quarter of the budget so interactive
  // tenants keep headroom.
  service::ServiceOptions options;
  options.num_workers = 4;
  options.global_budget = 16LL * 1024 * 1024;
  service::RefreshService service(&disk, options);
  service.SetTenantQuota("batch", options.global_budget / 4);

  std::cout << "submitting 12 refresh jobs from 3 tenants...\n";
  std::vector<std::future<service::JobResult>> futures;
  for (int i = 0; i < 12; ++i) {
    service::RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = i % 3 == 0 ? "batch" : i % 3 == 1 ? "bi" : "dashboards";
    spec.priority = spec.tenant == "dashboards" ? 1 : 0;  // latency-sensitive
    spec.requested_budget = options.global_budget / 2;
    futures.push_back(service.Submit(std::move(spec)));
  }

  for (auto& future : futures) {
    const service::JobResult r = future.get();
    std::cout << StrFormat(
        "job %2llu  tenant=%-10s ok=%d granted=%-8s wait=%.3fs exec=%.3fs "
        "catalog-hit=%.0f%% %s%s\n",
        static_cast<unsigned long long>(r.job_id), r.tenant.c_str(),
        r.report.ok ? 1 : 0, FormatBytes(r.granted_budget).c_str(),
        r.queue_wait_seconds, r.exec_seconds,
        100.0 * r.report.CatalogHitRate(),
        r.plan_cache_hit ? "[plan cache]" : "",
        r.reoptimized ? "[re-optimized]" : "");
  }

  std::cout << "\nper-tenant metrics:\n" << FormatTable(service.metrics());
  std::cout << "\npeak concurrent Memory-Catalog reservation: "
            << FormatBytes(service.broker().peak_reserved_bytes()) << " / "
            << FormatBytes(options.global_budget) << " global budget\n";
  return 0;
}
