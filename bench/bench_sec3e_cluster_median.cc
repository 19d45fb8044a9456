// E6 — §III-E: the byte-level transform codec on the cluster sliding-median
// run. Paper: intermediate data -77.8% (55.5 -> 12.3 GB) but total runtime
// +106% (183 -> 377 min) because the transform costs ~2.9x gzip's CPU.
//
// We execute the job for real at laptop scale (simple keys, 10 mappers,
// 5 reducers) with codec "null" vs "transform+gzipish", then project byte
// and CPU counters to the paper's dataset on the 5-node event simulator.
#include <iostream>

#include "cluster_median_common.h"

using namespace scishuffle;
using namespace scishuffle::bench;

int main() {
  banner("E6: §III-E — transform codec on the cluster sliding median");
  const grid::Variable input = makeIntGrid("pressure", {kLocalSide, kLocalSide}, 33);
  std::cout << "local run: " << kLocalSide << "x" << kLocalSide
            << " grid, 3x3 median, 10 mappers, 5 reducers; projected to "
            << fixed(kPaperCells / 1e6, 0) << "M cells on 5 nodes\n";

  const RunOutcome plain = runConfiguration(input, /*aggregate=*/false, "null");
  const RunOutcome gz = runConfiguration(input, /*aggregate=*/false, "gzipish");
  const RunOutcome transformed =
      runConfiguration(input, /*aggregate=*/false, "transform+gzipish");

  const double scale = paperScale();
  auto gb = [&](u64 bytes) { return humanBytes(static_cast<double>(bytes) * scale); };

  Table table({"configuration", "intermediate (projected)", "reduction", "runtime (projected)",
               "vs plain"});
  table.addRow({"plain (no codec)", gb(plain.materialized), "-", plain.runtime(), "-"});
  auto addCodecRow = [&](const char* name, const RunOutcome& run) {
    table.addRow({name, gb(run.materialized),
                  percentChange(static_cast<double>(plain.materialized),
                                static_cast<double>(run.materialized)),
                  run.runtime(), percentChange(plain.simulated.total_s, run.simulated.total_s)});
  };
  addCodecRow("gzipish codec", gz);
  addCodecRow("transform+gzipish codec", transformed);
  table.print();

  const double gzCpu =
      static_cast<double>(gz.counters.get(hadoop::counter::kCodecCompressCpuUs));
  const double trCpu =
      static_cast<double>(transformed.counters.get(hadoop::counter::kCodecCompressCpuUs));
  std::cout << "\ncompression CPU, transform+gzipish vs gzipish alone: "
            << fixed(trCpu / gzCpu, 1) << "x (paper: ~2.9x)\n";
  std::cout << "paper: intermediate -77.8% (55.5 -> 12.3 GB); runtime +106% (183 -> 377 min)\n";
  std::cout << "\nreducer shares of shuffled bytes (plain):             " << plain.reducerShares()
            << "\nreducer shares of shuffled bytes (transform+gzipish): "
            << transformed.reducerShares() << "\n";
  std::cout << "\nphase breakdown (transform+gzipish): "
            << transformed.simulated.toString() << "\n";
  std::cout << "phase breakdown (plain):              " << plain.simulated.toString() << "\n";
  return 0;
}
