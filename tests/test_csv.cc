// Tests for util/csv.h: round-trips, headers, and malformed input.

#include "util/csv.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace least {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "least_csv_test.csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteRaw(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(CsvTest, RoundTripWithHeader) {
  std::vector<std::vector<double>> rows = {{1.5, -2.0}, {3.0, 4.25}};
  ASSERT_TRUE(WriteCsv(path_, {"a", "b"}, rows).ok());
  auto result = ReadCsv(path_, /*has_header=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_DOUBLE_EQ(result.value().rows[0][0], 1.5);
  EXPECT_DOUBLE_EQ(result.value().rows[1][1], 4.25);
}

TEST_F(CsvTest, RoundTripWithoutHeader) {
  std::vector<std::vector<double>> rows = {{1, 2, 3}};
  ASSERT_TRUE(WriteCsv(path_, {}, rows).ok());
  auto result = ReadCsv(path_, /*has_header=*/false);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().header.empty());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0].size(), 3u);
}

TEST_F(CsvTest, PrecisionSurvivesRoundTrip) {
  const double v = 0.123456789012345678;
  ASSERT_TRUE(WriteCsv(path_, {}, {{v}}).ok());
  auto result = ReadCsv(path_, false);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().rows[0][0], v);
}

TEST_F(CsvTest, MissingFileIsIoError) {
  auto result = ReadCsv("/nonexistent/definitely/not/here.csv", false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(CsvTest, RaggedRowsRejected) {
  WriteRaw("1,2,3\n4,5\n");
  auto result = ReadCsv(path_, false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, NonNumericCellRejected) {
  WriteRaw("1,banana\n");
  auto result = ReadCsv(path_, false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, EmptyLinesSkipped) {
  WriteRaw("1,2\n\n3,4\n");
  auto result = ReadCsv(path_, false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 2u);
}

TEST_F(CsvTest, WindowsLineEndingsHandled) {
  WriteRaw("h1,h2\r\n1,2\r\n");
  auto result = ReadCsv(path_, true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().header[1], "h2");
  EXPECT_DOUBLE_EQ(result.value().rows[0][1], 2.0);
}

TEST_F(CsvTest, NegativeAndScientificNotation) {
  WriteRaw("-1.5,2e-3,1E5\n");
  auto result = ReadCsv(path_, false);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().rows[0][0], -1.5);
  EXPECT_DOUBLE_EQ(result.value().rows[0][1], 2e-3);
  EXPECT_DOUBLE_EQ(result.value().rows[0][2], 1e5);
}

TEST_F(CsvTest, UnwritablePathIsIoError) {
  Status s = WriteCsv("/nonexistent/dir/file.csv", {}, {{1.0}});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST_F(CsvTest, NonFiniteCellsRejected) {
  // strtod parses all of these successfully; the reader must still refuse
  // them — learning data has to be finite.
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "INF", "1e999"}) {
    WriteRaw(std::string("1.0,") + bad + "\n");
    auto result = ReadCsv(path_, false);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST_F(CsvTest, HeaderColumnCountMismatchRejected) {
  // Three header names but two-value rows: shape mismatch, not data.
  WriteRaw("a,b,c\n1,2\n");
  auto result = ReadCsv(path_, /*has_header=*/true);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, EmptyFileYieldsNoRows) {
  // An empty file is not an IO error at this layer; rejecting empty
  // datasets is CsvDataSource's job (kInvalidArgument there).
  WriteRaw("");
  auto result = ReadCsv(path_, false);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().rows.empty());
}

TEST_F(CsvTest, LoneCommaRejected) {
  // "," splits into two empty cells — empty cells are not numbers.
  WriteRaw(",\n");
  auto result = ReadCsv(path_, false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, TrailingGarbageAfterNumberAccepted) {
  // strtod semantics: leading numeric prefix parses ("1.5x" -> 1.5). This
  // is intentional leniency, documented by pinning it here.
  WriteRaw("1.5x,2\n");
  auto result = ReadCsv(path_, false);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().rows[0][0], 1.5);
}

// ------------------------------------------------ old parser as the golden ---
//
// The cell parser before the from_chars fast path existed: an istringstream
// split into a vector<string>, then strtod per cell. Kept verbatim here so
// the property test below can require the new parser to agree with it on
// every decision, status code, message and bit.

std::vector<std::string> GoldenSplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

Status GoldenParseCsvCells(const std::vector<std::string>& cells,
                           size_t line_no, const std::string& path,
                           std::vector<double>* out) {
  out->clear();
  for (const std::string& c : cells) {
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(c.c_str(), &end);
    if (end == c.c_str() || errno == ERANGE) {
      return Status::InvalidArgument(
          "non-numeric CSV cell '" + c + "' at line " +
          std::to_string(line_no) + " in '" + path + "'");
    }
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "non-finite CSV cell '" + c + "' at line " +
          std::to_string(line_no) + " in '" + path + "'");
    }
    out->push_back(v);
  }
  return Status::Ok();
}

/// Old and new agree on one line: cell count, accept/reject, status code,
/// message, and every value bitwise.
void ExpectSameAsGolden(const std::string& line) {
  SCOPED_TRACE("line '" + line + "'");
  const std::vector<std::string> cells = GoldenSplitCsvLine(line);
  std::vector<double> want;
  const Status golden = GoldenParseCsvCells(cells, 7, "p.csv", &want);
  ASSERT_EQ(CsvCellCount(line), cells.size());
  std::vector<double> got(cells.size());
  const Status parsed = ParseCsvRow(line, 7, "p.csv", got.data());
  ASSERT_EQ(parsed.ok(), golden.ok()) << parsed.ToString();
  EXPECT_EQ(parsed.code(), golden.code());
  EXPECT_EQ(parsed.message(), golden.message());
  if (!golden.ok()) return;
  ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)),
            0);
}

std::string Printed(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

TEST(CsvRowParser, EdgeCellsMatchOldStrtodPath) {
  const std::vector<std::string> edge = {
      "0", "-0", "0.0", "+0", "4.9e-324", "-4.9e-324",
      "2.2250738585072009e-308",  // largest subnormal
      "2.2250738585072011e-308",  // rounds to a subnormal: ERANGE
      "2.2250738585072012e-308",  // rounds *up* to DBL_MIN: still ERANGE
      "2.2250738585072014e-308",  // DBL_MIN itself
      "-2.2250738585072012e-308", "1.7976931348623157e308",
      "1.7976931348623158e308",   // rounds down to DBL_MAX
      "1.7976931348623159e308",   // overflows
      "1e-400", "1e999", "-1e999", "nan", "-nan", "NaN", "inf", "-inf",
      "infinity", "+1", " 1", "1 ", "\t2.5", "\r1", "1\r", "0x1p3", "0X10",
      "1.5x", "1e", "1e+", ".5", "-.5", "1.", "00012", "", " ", "-", "+",
      ".", "e5", std::string("1\0" "2", 3), std::string("\0", 1),
      "123456789012345678901234567890", "0.1000000000000000055511151231257827",
  };
  for (const std::string& cell : edge) {
    // Blank lines never reach the row parser (every reader skips them).
    if (!cell.empty()) ExpectSameAsGolden(cell);
    ExpectSameAsGolden("1.25," + cell);
    ExpectSameAsGolden(cell + ",-3");
  }
  ExpectSameAsGolden("1,2,");  // trailing comma: a trailing empty cell
  ExpectSameAsGolden(",");
  ExpectSameAsGolden(",,");
}

TEST(CsvRowParser, RandomDoublesInEveryPrintFormatMatchOldStrtodPath) {
  std::mt19937_64 bits(20261018);
  const char* formats[] = {"%.17g", "%g", "%.3e"};
  for (int i = 0; i < 20000; ++i) {
    double v = 0.0;
    if (i % 2 == 0) {
      // Any bit pattern: every exponent, subnormals, nan and inf included.
      const uint64_t u = bits();
      std::memcpy(&v, &u, sizeof(v));
    } else {
      v = std::uniform_real_distribution<double>(-1e3, 1e3)(bits);
    }
    std::string line;
    for (const char* format : formats) {
      ExpectSameAsGolden(Printed(format, v));
      line += Printed(format, v) + ",";
    }
    line.pop_back();
    ExpectSameAsGolden(line);
    if (HasFatalFailure()) return;
  }
}

TEST_F(CsvTest, ReadCsvMatchesOldParserOnMixedFiles) {
  // Whole files through ReadCsv: the line loop, '\r' stripping, header
  // split and raggedness rules around the row parser.
  std::mt19937_64 bits(7);
  const std::vector<std::string> odd = {"0", "-0", "1e-400", "nan", " 1",
                                        "+1", "1.5x", "", "0x1p3", "1e999"};
  for (int trial = 0; trial < 200; ++trial) {
    const int cols = 1 + static_cast<int>(bits() % 4);
    std::string content = "h0";
    for (int c = 1; c < cols; ++c) content += ",h" + std::to_string(c);
    content += (trial % 3 == 0) ? "\r\n" : "\n";
    for (int r = 0; r < 5; ++r) {
      for (int c = 0; c < cols; ++c) {
        const double mantissa = static_cast<double>(bits() % 9973) - 4986.0;
        const int exponent = static_cast<int>(bits() % 40) - 20;
        content += bits() % 40 == 0
                       ? odd[bits() % odd.size()]
                       : Printed("%.17g", std::ldexp(mantissa, exponent));
        if (c + 1 < cols) content += ",";
      }
      content += (trial % 3 == 0) ? "\r\n" : "\n";
    }
    WriteRaw(content);
    auto result = ReadCsv(path_, /*has_header=*/true);
    // Golden: the old line loop over the same content.
    std::istringstream in(content);
    std::string line;
    bool header = true;
    Status golden = Status::Ok();
    std::vector<std::vector<double>> want;
    size_t line_no = 0;
    while (golden.ok() && std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (header) {
        header = false;
        continue;
      }
      std::vector<double> row;
      golden = GoldenParseCsvCells(GoldenSplitCsvLine(line), line_no, path_,
                                   &row);
      want.push_back(row);
    }
    SCOPED_TRACE(content);
    ASSERT_EQ(result.ok(), golden.ok());
    if (!golden.ok()) {
      EXPECT_EQ(result.status().code(), golden.code());
      EXPECT_EQ(result.status().message(), golden.message());
      continue;
    }
    ASSERT_EQ(result.value().header.size(), static_cast<size_t>(cols));
    ASSERT_EQ(result.value().rows.size(), want.size());
    for (size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(std::memcmp(result.value().rows[r].data(), want[r].data(),
                            want[r].size() * sizeof(double)),
                0);
    }
  }
}

}  // namespace
}  // namespace least
