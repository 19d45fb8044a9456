// Shuffle-path benchmark driver (README.md):
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --workdir <dir> [--tiny]
//
// Prints a host record line, then the result as one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// `perfbench_driver worker ...` is the worker process of distributed runs;
// the coordinator execs this binary so workers know the benchmark's jobs.
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/json.h"
#include "service/worker.h"

namespace {

void printJsonLine(const perfbench::RunResult& r) {
  std::ostringstream os;
  scishuffle::obs::JsonWriter w(os, /*pretty=*/false);
  w.beginObject();
  w.kv("correct", r.correct);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.key("metrics").beginObject();
  for (const perfbench::Metric& m : r.metrics) {
    w.key(m.name).beginObject();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  std::cout << os.str() << std::endl;
}

void printHostLine(const perfbench::RunResult& r) {
  std::ostringstream os;
  scishuffle::obs::JsonWriter w(os, /*pretty=*/false);
  w.beginObject();
  w.key("host").beginObject();
  for (const auto& [k, v] : r.host) w.kv(k, v);
  w.endObject();
  w.endObject();
  std::cout << os.str() << std::endl;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--tiny]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const double start = perfbench::nowS();
  std::vector<std::string> args(argv + 1, argv + argc);
  perfbench::registerDistWorkload();
  if (!args.empty() && args[0] == "worker") {
    return scishuffle::service::workerMainFromArgs({args.begin() + 1, args.end()});
  }

  perfbench::RunOptions opt;
  opt.start_s = start;
  bool haveWorkload = false;
  bool trace = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= args.size()) usage("missing value for " + a);
    const std::string& v = args[++i];
    try {
      if (a == "--workload") {
        opt.workload = perfbench::parseWorkload(v);
        haveWorkload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        trace = v == "1";
      } else if (a == "--workdir") {
        opt.work_dir = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::exception& e) {
      usage(a + ": " + e.what());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (opt.work_dir.empty()) usage("--workdir is required");
  std::filesystem::create_directories(opt.work_dir);

  perfbench::RunResult result;
  try {
    result = trace ? perfbench::runLayers(opt) : perfbench::runEndToEnd(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: run failed: " << e.what() << "\n";
    return 1;
  }
  if (!result.host.empty()) printHostLine(result);
  printJsonLine(result);
  return result.correct && result.failed == 0 ? 0 : 1;
}
