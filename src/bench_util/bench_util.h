// Shared helpers for the paper-reproduction bench binaries: aligned table
// printing, byte formatting, wall timers, linear regression (Fig. 4), and
// the canonical workload generators the paper's experiments use.
#pragma once

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "grid/dataset.h"
#include "io/common.h"
#include "obs/json.h"

namespace scishuffle::bench {

/// The shared JSON writer every BENCH_*.json file goes through (same writer
/// that backs trace export and jobReportJson()).
using JsonWriter = obs::JsonWriter;

/// Owns an output file + JsonWriter pair for a BENCH_*.json artifact.
class JsonFile {
 public:
  explicit JsonFile(const std::filesystem::path& path);
  ~JsonFile();  // asserts the root container was closed, appends newline

  JsonWriter& writer() { return writer_; }

 private:
  std::ofstream file_;
  JsonWriter writer_;
};

/// Seconds-resolution wall timer.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// "12,000,000" — the paper prints byte counts with separators.
std::string withCommas(u64 v);

/// "55.5 GB" style.
std::string humanBytes(double bytes);

/// Fixed-precision double.
std::string fixed(double v, int precision);

/// Percent string like "+106.0%" / "-28.5%".
std::string percentChange(double from, double to);

/// Simple aligned-column table: set a header, add rows, print.
class Table {
 public:
  explicit Table(std::vector<std::string> header);
  void addRow(std::vector<std::string> row);
  void print() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Least-squares fit y = a*x + b; returns (a, b, r_squared).
struct LinearFit {
  double slope = 0;
  double intercept = 0;
  double r_squared = 0;
};
LinearFit fitLinear(const std::vector<double>& x, const std::vector<double>& y);

/// The Fig. 3 input: the raw stream of int32 triples from walking an
/// n*n*n grid ("12,000,000 bytes" at n = 100).
Bytes gridWalkStream(i64 n);

/// An int32 variable filled with the paper's "grid of integers".
grid::Variable makeIntGrid(const std::string& name, std::vector<i64> dims, u32 seed);

/// Section banner for bench output.
void banner(const std::string& title);

}  // namespace scishuffle::bench
