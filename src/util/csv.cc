#include "util/csv.h"

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace least {

namespace {

/// `ReadCsv`'s cell rules, by `strtod`: the arbiter for every cell the
/// `from_chars` fast path in `ParseCsvRow` declines.
Status ParseCsvCellSlow(std::string_view cell, size_t line_no,
                        const std::string& path, int shard, double* out) {
  const std::string c(cell);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(c.c_str(), &end);
  if (end == c.c_str() || errno == ERANGE) {
    return Status::InvalidArgument("non-numeric CSV cell '" + c + "' at " +
                                   CsvLineLabel(line_no, shard) + " in '" +
                                   path + "'");
  }
  // Learning data must be finite: strtod happily parses "nan"/"inf",
  // which would silently poison every downstream objective.
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("non-finite CSV cell '" + c + "' at " +
                                   CsvLineLabel(line_no, shard) + " in '" +
                                   path + "'");
  }
  *out = v;
  return Status::Ok();
}

}  // namespace

std::string CsvLineLabel(size_t line_no, int shard) {
  if (shard < 0) return "line " + std::to_string(line_no);
  return "shard-relative line " + std::to_string(line_no) + " of shard " +
         std::to_string(shard);
}

size_t CsvCellCount(std::string_view line) {
  return static_cast<size_t>(std::count(line.begin(), line.end(), ',')) + 1;
}

Status ParseCsvRow(std::string_view line, size_t line_no,
                   const std::string& path, double* out, int shard) {
  size_t begin = 0;
  for (;;) {
    size_t end = line.find(',', begin);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view cell = line.substr(begin, end - begin);
    double v = 0.0;
    const std::from_chars_result r =
        std::from_chars(cell.data(), cell.data() + cell.size(), v);
    // The open interval keeps out the one place the two parsers disagree:
    // glibc's strtod detects tininess before rounding, so a decimal just
    // below DBL_MIN that rounds up to it is ERANGE there and a plain
    // DBL_MIN here.
    const double mag = std::fabs(v);
    if (r.ec == std::errc() && r.ptr == cell.data() + cell.size() &&
        mag > DBL_MIN && mag < DBL_MAX) {
      *out = v;
    } else {
      const Status parsed = ParseCsvCellSlow(cell, line_no, path, shard, out);
      if (!parsed.ok()) return parsed;
    }
    ++out;
    if (end == line.size()) return Status::Ok();
    begin = end + 1;
  }
}

Result<CsvTable> ReadCsv(const std::string& path, bool has_header) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  CsvTable table;
  std::string line;
  size_t expected_cols = 0;
  bool first = true;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const size_t cells = CsvCellCount(line);
    if (first && has_header) {
      for (size_t begin = 0;;) {
        const size_t comma = line.find(',', begin);
        table.header.push_back(line.substr(begin, comma - begin));
        if (comma == std::string::npos) break;
        begin = comma + 1;
      }
      expected_cols = cells;
      first = false;
      continue;
    }
    if (first) {
      expected_cols = cells;
      first = false;
    } else if (cells != expected_cols) {
      return Status::InvalidArgument(
          "ragged CSV row at line " + std::to_string(line_no) + " in '" +
          path + "'");
    }
    std::vector<double> row(cells);
    const Status parsed = ParseCsvRow(line, line_no, path, row.data());
    if (!parsed.ok()) return parsed;
    table.rows.push_back(std::move(row));
  }
  return table;
}

Status WriteCsv(const std::string& path,
                const std::vector<std::string>& header,
                const std::vector<std::vector<double>>& rows) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  if (!header.empty()) {
    for (size_t i = 0; i < header.size(); ++i) {
      out << header[i] << (i + 1 == header.size() ? "\n" : ",");
    }
  }
  out.precision(17);
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << row[i] << (i + 1 == row.size() ? "\n" : ",");
    }
  }
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::Ok();
}

}  // namespace least
