#include "src/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = p * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

uint64_t RowsDigest(const std::vector<std::vector<int64_t>>& rows) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (byte * 8)) & 0xFF;
      hash *= 1099511628211ull;
    }
  };
  mix(rows.size());
  for (const auto& row : rows) {
    mix(row.size());
    for (int64_t value : row) mix(static_cast<uint64_t>(value));
  }
  return hash;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
           value + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
