// Unit tests for the common utilities: table printer, unit formatting,
// deterministic RNG, aligned allocation, error macros, latency statistics.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <vector>

#include "tlrwse/common/aligned.hpp"
#include "tlrwse/common/error.hpp"
#include "tlrwse/common/rng.hpp"
#include "tlrwse/common/stats.hpp"
#include "tlrwse/common/table.hpp"
#include "tlrwse/common/timer.hpp"
#include "tlrwse/common/types.hpp"
#include "tlrwse/common/units.hpp"

namespace tlrwse {
namespace {

TEST(Table, RendersAlignedColumns) {
  TablePrinter t({"nb", "acc", "bw (PB/s)"});
  t.add_row({"25", "0.0001", "11.24"});
  t.add_row({"70", "0.0001", "92.58"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("nb"), std::string::npos);
  EXPECT_NE(s.find("92.58"), std::string::npos);
  // Header + rule + 2 rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, RejectsWrongArity) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(TablePrinter({}), std::invalid_argument);
}

TEST(Cells, NumericFormatting) {
  EXPECT_EQ(cell(3.14159, 2), "3.14");
  EXPECT_EQ(cell(static_cast<long long>(42)), "42");
  EXPECT_EQ(cell_sci(2.94e11, 2), "2.94e+11");
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(763e9), "763.00 GB");
  EXPECT_EQ(format_bytes(48 * 1024.0), "49.15 kB");
  EXPECT_EQ(format_bandwidth(92.58e15), "92.58 PB/s");
  EXPECT_EQ(format_flops(37.95e15), "37.95 PFlop/s");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(bytes_to_gb(1e9), 1.0);
  EXPECT_DOUBLE_EQ(bytes_to_pb(2e15), 2.0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform() != b.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, IntegerBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.integer(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, FillNormalComplexHasBothParts) {
  Rng r(9);
  std::vector<cf32> v(64);
  fill_normal(r, v.data(), v.size());
  bool re = false, im = false;
  for (const auto& z : v) {
    if (z.real() != 0.0f) re = true;
    if (z.imag() != 0.0f) im = true;
  }
  EXPECT_TRUE(re);
  EXPECT_TRUE(im);
}

TEST(Aligned, VectorDataIs64ByteAligned) {
  std::vector<float, AlignedAllocator<float>> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  std::vector<cf64, AlignedAllocator<cf64>> w(37);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % 64, 0u);
}

TEST(Error, RequireThrowsWithMessage) {
  try {
    TLRWSE_REQUIRE(1 == 2, "got ", 42);
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("42"), std::string::npos);
  }
}

TEST(Error, EnsureThrowsLogicError) {
  EXPECT_THROW(TLRWSE_ENSURE(false, "bug"), std::logic_error);
}

TEST(Timer, MeasuresNonNegativeTime) {
  WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.micros(), t.millis());
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 95.0), 95.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 50.0), 0.0);
  EXPECT_THROW((void)percentile(v, 101.0), std::invalid_argument);
}

TEST(Stats, PercentileIsOrderInvariant) {
  const std::vector<double> shuffled{9.0, 1.0, 5.0, 3.0, 7.0};
  EXPECT_DOUBLE_EQ(percentile(shuffled, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(shuffled, 99.0), 9.0);
}

TEST(Stats, SummarizeLatencies) {
  const std::vector<double> samples{0.4, 0.1, 0.2, 0.3};
  const auto s = summarize_latencies(samples);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 0.25);
  EXPECT_DOUBLE_EQ(s.p50, 0.2);
  EXPECT_DOUBLE_EQ(s.max, 0.4);
  const auto empty = summarize_latencies({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
}

TEST(Types, ConjIfComplex) {
  EXPECT_EQ(conj_if_complex(3.0), 3.0);
  EXPECT_EQ(conj_if_complex(cf64(1.0, 2.0)), cf64(1.0, -2.0));
  static_assert(is_complex_v<cf32>);
  static_assert(!is_complex_v<float>);
  static_assert(std::is_same_v<real_of_t<cf32>, float>);
}

}  // namespace
}  // namespace tlrwse
