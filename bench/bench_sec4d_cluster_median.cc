// E8 — §IV-D: key aggregation on the cluster sliding-median run.
// Paper: intermediate data -60.7% (55.5 -> 21.8 GB) and total runtime
// -28.5% (183 -> 131 min) — aggregation costs almost no CPU, so the I/O
// savings show up directly, unlike the §III-E codec.
#include <iostream>

#include "cluster_median_common.h"

using namespace scishuffle;
using namespace scishuffle::bench;

int main() {
  banner("E8: §IV-D — key aggregation on the cluster sliding median");
  const grid::Variable input = makeIntGrid("pressure", {kLocalSide, kLocalSide}, 33);
  std::cout << "local run: " << kLocalSide << "x" << kLocalSide
            << " grid, 3x3 median, 10 mappers, 5 reducers; projected to "
            << fixed(kPaperCells / 1e6, 0) << "M cells on 5 nodes\n";

  const RunOutcome plain = runConfiguration(input, /*aggregate=*/false, "null");
  const RunOutcome aggregated = runConfiguration(input, /*aggregate=*/true, "null");

  const double scale = paperScale();
  auto gb = [&](u64 bytes) { return humanBytes(static_cast<double>(bytes) * scale); };

  Table table({"configuration", "intermediate (projected)", "reduction", "runtime (projected)",
               "vs plain"});
  table.addRow({"simple keys", gb(plain.materialized), "-", plain.runtime(), "-"});
  table.addRow({"aggregate keys", gb(aggregated.materialized),
                percentChange(static_cast<double>(plain.materialized),
                              static_cast<double>(aggregated.materialized)),
                aggregated.runtime(),
                percentChange(plain.simulated.total_s, aggregated.simulated.total_s)});
  table.print();

  std::cout << "\npaper: intermediate -60.7% (55.5 -> 21.8 GB); runtime -28.5% (183 -> 131 min)\n";
  std::cout << "key splits at reducers (overlap): "
            << aggregated.counters.get(hadoop::counter::kKeySplitsOverlap) << "\n";
  std::cout << "reducer shares of shuffled bytes (simple):    " << plain.reducerShares()
            << "\nreducer shares of shuffled bytes (aggregate): " << aggregated.reducerShares()
            << "\n";
  std::cout << "\nphase breakdown (aggregate): " << aggregated.simulated.toString() << "\n";
  std::cout << "phase breakdown (plain):     " << plain.simulated.toString() << "\n";
  return 0;
}
