// E1 — §I intro arithmetic: intermediate-file blowup of per-point keys.
//
// Paper: a 4-byte-float field keyed per grid point yields a 26,000,006-byte
// intermediate file with a variable *index* (overhead vs the 4,000,000 bytes
// of data) and 33,000,006 bytes with the variable *name* "windspeed1"
// (keys 6.75x the size of values); a (corner,size) aggregate representation
// reduces the overhead to a constant.
//
// Reconstruction (DESIGN.md §3): 10^6 grid points, keys carry the variable
// plus four int32 coordinates. We regenerate all three representations
// through the real IFile writer (ifile_sizes.h) and report exact byte counts;
// tests/fidelity_test.cc pins them.
#include <iostream>

#include "bench_util/bench_util.h"
#include "grid/dataset.h"
#include "ifile_sizes.h"

using namespace scishuffle;

namespace {

constexpr i64 kSide = 1000;

}  // namespace

int main() {
  bench::banner("E1: intermediate key overhead (paper §I)");
  grid::Variable wind("windspeed1", grid::DataType::kFloat32, grid::Shape({kSide, kSide}));
  grid::gen::fillWindspeed(wind, 2012);

  const bench::IFileSizes indexed =
      bench::perPointKeyFile(wind, "windspeed1", scikey::VariableTag::kIndex);
  const bench::IFileSizes named =
      bench::perPointKeyFile(wind, "windspeed1", scikey::VariableTag::kName);
  const bench::IFileSizes aggregated = bench::aggregateKeyFile(wind, 1);

  auto overhead = [](const bench::IFileSizes& s) {
    return bench::fixed(static_cast<double>(s.file - s.values) /
                            static_cast<double>(s.values) * 100.0,
                        0) +
           "%";
  };
  auto ratio = [](const bench::IFileSizes& s) {
    return bench::fixed(static_cast<double>(s.keys) / static_cast<double>(s.values), 2);
  };

  bench::Table table({"representation", "records", "file bytes", "key bytes", "key/value",
                      "overhead vs data", "paper file bytes"});
  table.addRow({"simple key, var index", bench::withCommas(indexed.records),
                bench::withCommas(indexed.file), bench::withCommas(indexed.keys), ratio(indexed),
                overhead(indexed), "26,000,006"});
  table.addRow({"simple key, var name", bench::withCommas(named.records),
                bench::withCommas(named.file), bench::withCommas(named.keys), ratio(named),
                overhead(named), "33,000,006"});
  table.addRow({"aggregate (corner,size)", bench::withCommas(aggregated.records),
                bench::withCommas(aggregated.file), bench::withCommas(aggregated.keys),
                ratio(aggregated), overhead(aggregated), "~values + const"});
  table.print();

  std::cout << "\npaper: key/value = 6.75 for windspeed1 (27-byte key / 4-byte value);\n"
               "       aggregate keys make the key side a constant-factor term.\n";
  return 0;
}
