/// \file csv.h
/// \brief Minimal CSV reading/writing for numeric tables.
///
/// Data matrices and learned edge lists can be exported for inspection or
/// imported from user files (e.g. a real MovieLens export). Values are
/// doubles; no quoting/escaping is supported (numeric payloads only, with an
/// optional header line of column names).

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace least {

/// \brief A parsed CSV file: optional header plus a dense row-major table.
struct CsvTable {
  std::vector<std::string> header;        ///< empty if `has_header` was false
  std::vector<std::vector<double>> rows;  ///< each inner vector is one line
};

/// Reads a numeric CSV file. When `has_header` is true the first line is
/// returned in `CsvTable::header` instead of being parsed as numbers.
/// Fails with `kIoError` when the file cannot be opened and
/// `kInvalidArgument` on ragged rows (including rows disagreeing with the
/// header's column count) or non-numeric / non-finite cells — learning
/// data must be finite, so "nan"/"inf" are rejected rather than parsed.
Result<CsvTable> ReadCsv(const std::string& path, bool has_header);

/// Number of cells in one non-empty CSV line (readers skip blank lines):
/// one more than its comma count (no quoting, so a trailing comma yields a
/// trailing empty cell).
size_t CsvCellCount(std::string_view line);

/// Names a CSV line in messages: "line N" — a file line — or, when `shard`
/// is >= 0, "shard-relative line N of shard S" for a line counted from the
/// start of a shard's byte extent whose place in the file is not known.
std::string CsvLineLabel(size_t line_no, int shard = -1);

/// Parses every cell of one CSV data line into `out[0, CsvCellCount(line))`
/// with `ReadCsv`'s rejection rules: non-numeric and non-finite cells are
/// `kInvalidArgument` (`line_no`/`path`/`shard` only feed the error message,
/// through `CsvLineLabel`).
/// Allocation-free for cells `std::from_chars` takes whole; every other cell
/// (zeros, subnormals, '+' or whitespace prefixes, hex, trailing garbage)
/// goes through `strtod`, so values and decisions are `strtod`'s bit for
/// bit. Shared by `ReadCsv` and the shard loaders in `core/data_source.cc`,
/// so a row parsed from a shard's byte extent equals the whole-file parse.
Status ParseCsvRow(std::string_view line, size_t line_no,
                   const std::string& path, double* out, int shard = -1);

/// Writes a numeric table (with optional header) to `path`.
Status WriteCsv(const std::string& path,
                const std::vector<std::string>& header,
                const std::vector<std::vector<double>>& rows);

}  // namespace least
