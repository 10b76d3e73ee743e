// Shared main of the google-benchmark binaries. Besides running the
// registered benchmarks it records in the JSON context block what the
// numbers measured: the project's CMAKE_BUILD_TYPE (google-benchmark's own
// `library_build_type` describes the benchmark library, not this code) and
// the host's hardware thread count.

#ifndef FTOA_BENCH_BENCH_MAIN_H_
#define FTOA_BENCH_BENCH_MAIN_H_

#include <benchmark/benchmark.h>

#include <string>
#include <thread>

#ifndef FTOA_BUILD_TYPE
#define FTOA_BUILD_TYPE "unknown"
#endif

namespace ftoa {
namespace bench {

inline int RunBenchmarkMain(int argc, char** argv) {
  benchmark::AddCustomContext("ftoa_build_type", FTOA_BUILD_TYPE);
  benchmark::AddCustomContext(
      "ftoa_hardware_threads",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench
}  // namespace ftoa

#endif  // FTOA_BENCH_BENCH_MAIN_H_
