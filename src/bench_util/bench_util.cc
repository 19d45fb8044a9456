#include "bench_util/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <sstream>

#include "io/primitives.h"
#include "io/streams.h"

namespace scishuffle::bench {

JsonFile::JsonFile(const std::filesystem::path& path) : file_(path), writer_(file_) {
  check(file_.good(), "cannot open bench JSON output file");
}

JsonFile::~JsonFile() {
  check(writer_.done(), "bench JSON file closed with an open container");
  file_ << "\n";
}

std::string withCommas(u64 v) {
  std::string digits = std::to_string(v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string humanBytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1000.0 && u < 4) {
    bytes /= 1000.0;
    ++u;
  }
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(bytes < 10 ? 2 : 1);
  os << bytes << " " << units[u];
  return os.str();
}

std::string fixed(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

std::string percentChange(double from, double to) {
  const double pct = (to - from) / from * 100.0;
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << (pct >= 0 ? "+" : "") << pct << "%";
  return os.str();
}

Table::Table(std::vector<std::string> header) { rows_.push_back(std::move(header)); }

void Table::addRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

void Table::print() const {
  std::vector<std::size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) widths[i] = std::max(widths[i], row[i].size());
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    std::string line = "  ";
    for (std::size_t i = 0; i < rows_[r].size(); ++i) {
      std::string cell = rows_[r][i];
      cell.resize(widths[i], ' ');
      line += cell;
      line += "  ";
    }
    std::cout << line << "\n";
    if (r == 0) {
      std::string rule = "  ";
      for (std::size_t i = 0; i < widths.size(); ++i) {
        rule += std::string(widths[i], '-');
        rule += "  ";
      }
      std::cout << rule << "\n";
    }
  }
  std::cout.flush();
}

LinearFit fitLinear(const std::vector<double>& x, const std::vector<double>& y) {
  check(x.size() == y.size() && x.size() >= 2, "need >= 2 points");
  const double n = static_cast<double>(x.size());
  const double sx = std::accumulate(x.begin(), x.end(), 0.0);
  const double sy = std::accumulate(y.begin(), y.end(), 0.0);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ssTot = syy - sy * sy / n;
  double ssRes = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = y[i] - (fit.slope * x[i] + fit.intercept);
    ssRes += e * e;
  }
  fit.r_squared = ssTot > 0 ? 1.0 - ssRes / ssTot : 1.0;
  return fit;
}

Bytes gridWalkStream(i64 n) {
  Bytes out;
  out.reserve(static_cast<std::size_t>(n * n * n) * 12);
  MemorySink sink(out);
  for (i32 x = 0; x < n; ++x) {
    for (i32 y = 0; y < n; ++y) {
      for (i32 z = 0; z < n; ++z) {
        writeI32(sink, x);
        writeI32(sink, y);
        writeI32(sink, z);
      }
    }
  }
  return out;
}

grid::Variable makeIntGrid(const std::string& name, std::vector<i64> dims, u32 seed) {
  grid::Variable v(name, grid::DataType::kInt32, grid::Shape(std::move(dims)));
  grid::gen::fillRandomInt(v, seed, 1 << 20);
  return v;
}

void banner(const std::string& title) {
  std::cout << "\n== " << title << " ==\n";
}

}  // namespace scishuffle::bench
