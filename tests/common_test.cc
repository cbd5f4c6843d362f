#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "common/csv.h"
#include "common/matrix.h"
#include "common/metrics.h"
#include "common/cli.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/stats.h"

namespace gmr {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, TruncatedGaussianClampsToBounds) {
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.TruncatedGaussian(0.0, 10.0, -1.0, 2.0);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 2.0);
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(19);
  const auto sample = rng.SampleWithoutReplacement(10, 6);
  ASSERT_EQ(sample.size(), 6u);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    EXPECT_LT(sample[i], 10u);
    for (std::size_t j = i + 1; j < sample.size(); ++j) {
      EXPECT_NE(sample[i], sample[j]);
    }
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// ------------------------------------------------------------ metrics ----

TEST(MetricsTest, RmseKnownValue) {
  EXPECT_DOUBLE_EQ(Rmse({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}), 0.0);
  EXPECT_DOUBLE_EQ(Rmse({0.0, 0.0}, {3.0, 4.0}),
                   std::sqrt((9.0 + 16.0) / 2.0));
}

TEST(MetricsTest, MaeKnownValue) {
  EXPECT_DOUBLE_EQ(Mae({0.0, 0.0}, {3.0, -4.0}), 3.5);
}

TEST(MetricsTest, RmseAtLeastMae) {
  Rng rng(5);
  std::vector<double> a(50), b(50);
  for (int i = 0; i < 50; ++i) {
    a[i] = rng.Uniform(-10, 10);
    b[i] = rng.Uniform(-10, 10);
  }
  EXPECT_GE(Rmse(a, b), Mae(a, b));
}

TEST(MetricsTest, NashSutcliffePerfectIsOne) {
  EXPECT_DOUBLE_EQ(NashSutcliffe({1, 2, 3}, {1, 2, 3}), 1.0);
}

TEST(MetricsTest, NashSutcliffeMeanPredictorIsZero) {
  EXPECT_NEAR(NashSutcliffe({2, 2, 2}, {1, 2, 3}), 0.0, 1e-12);
}

TEST(MetricsTest, AicPenalizesParameters) {
  const double ll = -10.0;
  EXPECT_LT(Aic(ll, 2), Aic(ll, 5));
}

// ---------------------------------------------------------------- ulps ----

TEST(UlpTest, IdenticalValuesAreZeroApart) {
  EXPECT_EQ(UlpDistance(1.5, 1.5), 0u);
  EXPECT_EQ(UlpDistance(0.0, -0.0), 0u);  // signed zeros coincide
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(UlpDistance(inf, inf), 0u);
  EXPECT_EQ(UlpDistance(-inf, -inf), 0u);
}

TEST(UlpTest, AdjacentRepresentablesAreOneApart) {
  const double x = 1.0;
  const double up = std::nextafter(x, 2.0);
  const double down = std::nextafter(x, 0.0);
  EXPECT_EQ(UlpDistance(x, up), 1u);
  EXPECT_EQ(UlpDistance(up, x), 1u);  // symmetric
  EXPECT_EQ(UlpDistance(down, up), 2u);
  // Crossing zero counts the subnormals in between, not a huge bit gap.
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(UlpDistance(-tiny, tiny), 2u);
  EXPECT_EQ(UlpDistance(0.0, tiny), 1u);
}

TEST(UlpTest, NanIsMaximallyDistant) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(UlpDistance(nan, 1.0), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(UlpDistance(1.0, nan), std::numeric_limits<std::uint64_t>::max());
}

TEST(UlpTest, InfinityIsOneStepPastMaxDouble) {
  const double inf = std::numeric_limits<double>::infinity();
  const double max = std::numeric_limits<double>::max();
  EXPECT_EQ(UlpDistance(max, inf), 1u);
  EXPECT_EQ(UlpDistance(-max, -inf), 1u);
}

TEST(WithinUlpsTest, ExactAndToleratedAgreement) {
  EXPECT_TRUE(WithinUlps(2.0, 2.0, 0));
  EXPECT_TRUE(WithinUlps(0.0, -0.0, 0));
  const double up = std::nextafter(1.0, 2.0);
  EXPECT_FALSE(WithinUlps(1.0, up, 0));
  EXPECT_TRUE(WithinUlps(1.0, up, 1));
  EXPECT_TRUE(WithinUlps(1.0, up, 4));
}

TEST(WithinUlpsTest, NonFiniteRules) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(WithinUlps(nan, nan, 0));    // both-NaN agree (oracle use)
  EXPECT_TRUE(WithinUlps(inf, inf, 0));
  EXPECT_TRUE(WithinUlps(-inf, -inf, 0));
  EXPECT_FALSE(WithinUlps(inf, -inf, 1000));
  EXPECT_FALSE(WithinUlps(nan, 1.0, 1000));
  EXPECT_FALSE(WithinUlps(inf, 1.0, 1000));
  // A finite value one ULP below +inf's neighbour is still never "within"
  // of +inf: finite vs non-finite is a hard mismatch.
  EXPECT_FALSE(WithinUlps(std::numeric_limits<double>::max(), inf, 1000));
}

// -------------------------------------------------------------- stats ----

TEST(StatsTest, MeanVarianceStdDev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantSeriesIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(StatsTest, StandardizerRoundTrip) {
  const std::vector<double> xs{1.0, 5.0, 9.0, -2.0};
  const Standardizer s = FitStandardizer(xs);
  for (double x : xs) EXPECT_NEAR(s.Inverse(s.Transform(x)), x, 1e-12);
}

TEST(StatsTest, InterpolationHitsSamplesExactly) {
  const std::vector<std::size_t> days{0, 4, 8};
  const std::vector<double> values{1.0, 5.0, 3.0};
  const auto series = LinearInterpolate(days, values, 10);
  ASSERT_EQ(series.size(), 10u);
  EXPECT_DOUBLE_EQ(series[0], 1.0);
  EXPECT_DOUBLE_EQ(series[4], 5.0);
  EXPECT_DOUBLE_EQ(series[8], 3.0);
  EXPECT_DOUBLE_EQ(series[2], 3.0);   // midpoint of 1..5
  EXPECT_DOUBLE_EQ(series[6], 4.0);   // midpoint of 5..3
  EXPECT_DOUBLE_EQ(series[9], 3.0);   // flat extrapolation
}

TEST(StatsTest, InterpolationFlatBeforeFirstSample) {
  const auto series = LinearInterpolate({3, 5}, {2.0, 4.0}, 8);
  EXPECT_DOUBLE_EQ(series[0], 2.0);
  EXPECT_DOUBLE_EQ(series[2], 2.0);
}

/// Property: interpolated values always lie within the convex hull of the
/// sample values.
class InterpolationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(InterpolationPropertyTest, WithinSampleHull) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t length = 50 + rng.UniformInt(std::uint64_t{100});
  std::vector<std::size_t> days;
  std::vector<double> values;
  std::size_t t = rng.UniformInt(std::uint64_t{5});
  double lo = 1e300;
  double hi = -1e300;
  while (t < length) {
    days.push_back(t);
    const double v = rng.Uniform(-100.0, 100.0);
    values.push_back(v);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    t += 1 + rng.UniformInt(std::uint64_t{13});
  }
  const auto series = LinearInterpolate(days, values, length);
  for (double v : series) {
    EXPECT_GE(v, lo - 1e-9);
    EXPECT_LE(v, hi + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpolationPropertyTest,
                         ::testing::Range(0, 20));

TEST(StatsTest, QuantileOrderStatistics) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 2.0);
}

// ------------------------------------------------------------- matrix ----

TEST(MatrixTest, MultiplyKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int v = 1;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) a.At(i, j) = v++;
  v = 1;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 2; ++j) b.At(i, j) = v++;
  const Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 22.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 28.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 49.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 64.0);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(3);
  Matrix a(4, 6);
  for (auto& x : a.data()) x = rng.Uniform(-1, 1);
  const Matrix att = a.Transpose().Transpose();
  EXPECT_EQ(att.data(), a.data());
}

TEST(MatrixTest, IdentityIsMultiplicativeUnit) {
  Rng rng(9);
  Matrix a(3, 3);
  for (auto& x : a.data()) x = rng.Uniform(-5, 5);
  const Matrix i3 = Matrix::Identity(3);
  EXPECT_EQ(a.Multiply(i3).data(), a.data());
  EXPECT_EQ(i3.Multiply(a).data(), a.data());
}

TEST(MatrixTest, CholeskySolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2].
  Matrix a(2, 2);
  a.At(0, 0) = 4;
  a.At(0, 1) = 2;
  a.At(1, 0) = 2;
  a.At(1, 1) = 3;
  std::vector<double> x;
  ASSERT_TRUE(CholeskySolve(a, {10, 9}, 0.0, &x));
  EXPECT_NEAR(x[0], 1.5, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(MatrixTest, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 2;
  a.At(1, 1) = 1;  // eigenvalues 3 and -1
  std::vector<double> x;
  EXPECT_FALSE(CholeskySolve(a, {1, 1}, 0.0, &x));
}

TEST(MatrixTest, LeastSquaresRecoversCoefficients) {
  Rng rng(21);
  const std::size_t n = 200;
  Matrix x(n, 3);
  std::vector<double> y(n);
  const double beta[3] = {2.0, -1.5, 0.25};
  for (std::size_t i = 0; i < n; ++i) {
    double target = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      x.At(i, j) = rng.Uniform(-2, 2);
      target += beta[j] * x.At(i, j);
    }
    y[i] = target;
  }
  std::vector<double> est;
  ASSERT_TRUE(LeastSquares(x, y, &est));
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(est[j], beta[j], 1e-6);
}

// ---------------------------------------------------------------- csv ----

TEST(CsvTest, WriteReadRoundTrip) {
  CsvTable table;
  table.column_names = {"a", "b", "c"};
  table.rows = {{1.0, 2.5, -3.0}, {4.25, 0.0, 1e6}};
  const std::string path = ::testing::TempDir() + "/gmr_csv_test.csv";
  ASSERT_TRUE(WriteCsv(path, table));
  CsvTable loaded;
  ASSERT_TRUE(ReadCsv(path, &loaded));
  EXPECT_EQ(loaded.column_names, table.column_names);
  ASSERT_EQ(loaded.rows.size(), table.rows.size());
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    for (std::size_t j = 0; j < table.rows[i].size(); ++j) {
      EXPECT_DOUBLE_EQ(loaded.rows[i][j], table.rows[i][j]);
    }
  }
}

TEST(CsvTest, ColumnExtraction) {
  CsvTable table;
  table.column_names = {"x", "y"};
  table.rows = {{1, 10}, {2, 20}, {3, 30}};
  EXPECT_EQ(table.ColumnIndex("y"), 1);
  EXPECT_EQ(table.ColumnIndex("z"), -1);
  EXPECT_EQ(table.Column("y"), (std::vector<double>{10, 20, 30}));
}

TEST(CsvTest, ReadRejectsMissingFile) {
  CsvTable table;
  std::string error;
  EXPECT_FALSE(ReadCsv("/nonexistent/path/nope.csv", &table, &error));
  EXPECT_NE(error.find("/nonexistent/path/nope.csv"), std::string::npos);
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

/// Writes raw text to a temp file and returns its path.
std::string WriteTempFile(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(CsvTest, ReadReportsFileLineAndField) {
  const std::string path =
      WriteTempFile("gmr_csv_bad_cell.csv", "a,b,c\n1,2,3\n4,abc,6\n");
  CsvTable table;
  std::string error;
  EXPECT_FALSE(ReadCsv(path, &table, &error));
  // The message pinpoints file, 1-based line, 1-based field, and the cell.
  EXPECT_NE(error.find(path + ":3"), std::string::npos) << error;
  EXPECT_NE(error.find("field 2"), std::string::npos) << error;
  EXPECT_NE(error.find("'abc'"), std::string::npos) << error;
  EXPECT_NE(error.find("not a number"), std::string::npos) << error;
}

TEST(CsvTest, ReadRejectsPartiallyNumericCell) {
  const std::string path =
      WriteTempFile("gmr_csv_partial.csv", "a\n1.5x\n");
  CsvTable table;
  std::string error;
  EXPECT_FALSE(ReadCsv(path, &table, &error));
  EXPECT_NE(error.find("'1.5x'"), std::string::npos) << error;
}

TEST(CsvTest, ReadRejectsFieldCountMismatch) {
  const std::string path =
      WriteTempFile("gmr_csv_ragged.csv", "a,b,c\n1,2,3\n1,2\n");
  CsvTable table;
  std::string error;
  EXPECT_FALSE(ReadCsv(path, &table, &error));
  EXPECT_NE(error.find(path + ":3"), std::string::npos) << error;
  EXPECT_NE(error.find("expected 3 fields, got 2"), std::string::npos)
      << error;
}

TEST(CsvTest, ReadRejectsEmptyFile) {
  const std::string path = WriteTempFile("gmr_csv_empty.csv", "");
  CsvTable table;
  std::string error;
  EXPECT_FALSE(ReadCsv(path, &table, &error));
  EXPECT_NE(error.find("empty file"), std::string::npos) << error;
}

TEST(CsvTest, ReadRejectsEmptyCell) {
  const std::string path =
      WriteTempFile("gmr_csv_empty_cell.csv", "a,b\n,2\n");
  CsvTable table;
  std::string error;
  EXPECT_FALSE(ReadCsv(path, &table, &error));
  EXPECT_NE(error.find("field 1 ('')"), std::string::npos) << error;
}

TEST(CsvTest, ReadTrimsCarriageReturns) {
  const std::string path =
      WriteTempFile("gmr_csv_crlf.csv", "a,b\r\n1,2\r\n3,4\r\n");
  CsvTable table;
  std::string error;
  ASSERT_TRUE(ReadCsv(path, &table, &error)) << error;
  EXPECT_EQ(table.column_names, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(table.rows[1][1], 4.0);
}

TEST(ParseUnsignedTest, AcceptsOnlyDigitsWithinTheBound) {
  std::uint64_t value = 99;
  EXPECT_TRUE(ParseUnsigned("0", 10, &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseUnsigned("007", 10, &value));
  EXPECT_EQ(value, 7u);
  EXPECT_TRUE(ParseUnsigned("10", 10, &value));
  EXPECT_EQ(value, 10u);
  EXPECT_TRUE(ParseUnsigned("18446744073709551615",
                            std::numeric_limits<std::uint64_t>::max(),
                            &value));
  EXPECT_EQ(value, std::numeric_limits<std::uint64_t>::max());
  value = 99;
  for (const char* bad :
       {"", "-1", "-0", "+1", " 1", "1 ", "\t1", "5x", "0x10", "1.0", "1e3",
        "abc", "18446744073709551616", "11"}) {
    EXPECT_FALSE(ParseUnsigned(bad, 10, &value)) << "'" << bad << "'";
    EXPECT_EQ(value, 99u) << "a rejected parse must not write the value";
  }
}

TEST(ParseUnsignedTest, TypedFormIsBoundedByTheType) {
  int slot = -5;
  EXPECT_TRUE(ParseUnsigned("2147483647", &slot));
  EXPECT_EQ(slot, std::numeric_limits<int>::max());
  EXPECT_FALSE(ParseUnsigned("2147483648", &slot));
  EXPECT_FALSE(ParseUnsigned("4294967297", &slot));
  EXPECT_FALSE(ParseUnsigned("-1", &slot));
  std::size_t count = 0;
  EXPECT_TRUE(ParseUnsigned("4294967297", &count));
  EXPECT_EQ(count, 4294967297u);
}

TEST(ParseDoubleTest, LoadsEveryLiteralTheWritersPrint) {
  // Precision-17 round trips, including the non-finite spellings and the
  // subnormals; bits must survive exactly.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double want :
       {0.05, -0.0, 1e300, 1.7976931348623157e308, 4.9406564584124654e-324,
        2.2250738585072009e-308, inf, -inf, 0.1 + 0.2}) {
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", want);
    double got = 0.0;
    ASSERT_TRUE(ParseDouble(text, &got)) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << text;
  }
  for (const char* nan : {"nan", "-nan"}) {
    double got = 0.0;
    ASSERT_TRUE(ParseDouble(nan, &got)) << nan;
    EXPECT_TRUE(std::isnan(got)) << nan;
  }
}

TEST(ParseDoubleTest, RejectsPrefixesJunkAndOutOfRangeLiterals) {
  double value = 99.0;
  for (const char* bad :
       {"", " 1", "1 ", "\t1", "+1", "0.05abc", "banana", "0.0x", "1.0abc",
        "1e", "--1", "1e400", "-1e400", "0x1p3"}) {
    EXPECT_FALSE(ParseDouble(bad, &value)) << "'" << bad << "'";
    EXPECT_EQ(value, 99.0) << "a rejected parse must not write the value";
  }
}

TEST(ParseUnsignedDeathTest, CommandLineFormNamesTheValueAndExitsTwo) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EQ(ParseUnsignedOrExit("tool", "--threads", "3", 1), 3);
  EXPECT_EXIT(ParseUnsignedOrExit("tool", "--threads", "abc", 1),
              ::testing::ExitedWithCode(2),
              "tool: bad value 'abc' for --threads");
  EXPECT_EXIT(ParseUnsignedOrExit("tool", "--threads", "0", 1),
              ::testing::ExitedWithCode(2), "--threads");
  EXPECT_EXIT(ParseUnsignedOrExit("tool", "--gens", "5x"),
              ::testing::ExitedWithCode(2), "--gens");
  EXPECT_EXIT(ParseUnsignedOrExit<std::uint64_t>("tool", "SEED", "-1"),
              ::testing::ExitedWithCode(2), "SEED");
  EXPECT_EXIT(ParseUnsignedOrExit("tool", "--pop", nullptr),
              ::testing::ExitedWithCode(2), "tool: --pop needs a value");
}

}  // namespace
}  // namespace gmr
