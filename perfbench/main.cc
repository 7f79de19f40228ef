// Real-engine refresh benchmark entry point. Normally started through run.py,
// which builds it first:
//
//   perfbench --workload fig9_io --seed 1 --seconds 10 --trace 0
//             [--work-dir DIR] [--results-dir DIR] [--source-id ID]
//
// Prints the metric table, then one JSON result line as the last line of
// standard output. Exits non-zero, without a result line, on any set-up
// failure.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.h"

namespace {

int Usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload {fig9_io|compute_lanes|"
               "service_shared} --seed N --seconds S --trace {0|1} "
               "[--work-dir DIR] [--results-dir DIR] [--source-id ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.work_dir = ".bench_work";
  options.results_dir = ".bench_results";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--results-dir") {
        options.results_dir = value;
      } else if (flag == "--source-id") {
        options.source_id = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");

  try {
    const perfbench::RunResult result = perfbench::RunWorkload(options);
    for (const std::string& line : result.report) std::cout << line << "\n";
    std::cout << perfbench::ResultLine(result) << std::endl;
  } catch (const std::invalid_argument& e) {
    return Usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}
