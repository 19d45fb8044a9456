// E7 — Fig. 8: effect of key aggregation on total intermediate data size,
// broken into values / keys / file overhead, for a grid of integers keyed
// per point (ideal case: one mapper, so aggregation is maximal).
//
// Paper bars (reconstructed, DESIGN.md §3): original = 3.81 MB values +
// 19.07 MB keys + 1.91 MB file overhead; compressed = same values + keys
// and overhead collapsed to KB scale; total reduction "up to 84.5%".
// Also reproduces the note that partitioning across map tasks yields less
// aggregation. Byte counts come from ifile_sizes.h; tests/fidelity_test.cc
// pins the 1-mapper breakdown.
#include <iostream>

#include "bench_util/bench_util.h"
#include "grid/dataset.h"
#include "ifile_sizes.h"

using namespace scishuffle;

namespace {

constexpr i64 kSide = 1000;

std::string mb(u64 bytes) { return bench::humanBytes(static_cast<double>(bytes)); }

}  // namespace

int main() {
  bench::banner("E7: Fig. 8 — key aggregation data-size breakdown (1000x1000 ints)");
  const grid::Variable v = bench::makeIntGrid("field", {kSide, kSide}, 88);

  const bench::IFileSizes original = bench::perPointKeyFile(v, "", scikey::VariableTag::kIndex);
  const bench::IFileSizes ideal = bench::aggregateKeyFile(v, 1);

  bench::Table table({"component", "original", "compressed (1 mapper)", "paper original",
                      "paper compressed"});
  table.addRow({"values", mb(original.values), mb(ideal.values), "3.81 MB", "3.81 MB"});
  table.addRow({"keys", mb(original.keys), mb(ideal.keys), "19.07 MB", "~KB"});
  table.addRow(
      {"file overhead", mb(original.overhead()), mb(ideal.overhead()), "1.91 MB", "5.84 KB"});
  table.addRow({"total", mb(original.file), mb(ideal.file), "24.80 MB", "~3.9 MB"});
  table.addRow({"records", bench::withCommas(original.records), bench::withCommas(ideal.records),
                "1,000,000", "~thousands"});
  table.print();

  const double reduction =
      (1.0 - static_cast<double>(ideal.file) / static_cast<double>(original.file)) * 100.0;
  std::cout << "\ntotal reduction (ideal case): " << bench::fixed(reduction, 1)
            << "%   (paper: up to 84.5%)\n";

  bench::banner("E7b: partitioning across map tasks reduces aggregation");
  bench::Table parts({"map tasks", "aggregate records", "total intermediate", "reduction"});
  for (const int splits : {1, 4, 16, 64}) {
    const bench::IFileSizes b = bench::aggregateKeyFile(v, splits);
    const double red =
        (1.0 - static_cast<double>(b.file) / static_cast<double>(original.file)) * 100.0;
    parts.addRow({std::to_string(splits), bench::withCommas(b.records), mb(b.file),
                  bench::fixed(red, 1) + "%"});
  }
  parts.print();
  std::cout << "paper: \"Partitioning the data set across Map tasks results in less"
               " aggregation.\"\n";
  return 0;
}
