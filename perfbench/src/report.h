#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The p-quantile (p in [0, 1]) of `values`, linearly interpolated between
/// the closest ranks (numpy's default). 0 for an empty input.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
/// Geometric mean of positive values. 0 for an empty input.
double GeoMean(const std::vector<double>& values);

/// Order-sensitive FNV-1a digest of a query result: row count, then each
/// row's width and values. The engines return rows in a defined order
/// (every query sorts or yields one row), so equal results digest equally.
uint64_t RowsDigest(const std::vector<std::vector<int64_t>>& rows);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values keep all 17 digits.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
