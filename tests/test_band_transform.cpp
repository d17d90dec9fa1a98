// Tests for the band-limited transform pair of the MDC operator: the
// forward bins against the double-precision rfft, the inverse against
// irfft of the band-only spectrum, the exact-adjoint scaling (dot test),
// per-column bitwise equality across batch size and team size, and
// MdcOperator thread-count invariance through the transform, at a
// power-of-two nt, the paper's Bluestein size (nt 1125, 230 bins) and an
// odd nt.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <ostream>

#include "test_helpers.hpp"
#include "tlrwse/fft/fft.hpp"
#include "tlrwse/mdc/band_transform.hpp"
#include "tlrwse/mdc/mdc_operator.hpp"

namespace tlrwse::mdc {
namespace {

struct Shape {
  const char* name;
  index_t nt;
  index_t first_bin;
  index_t nbins;
};

// Keeps the discovered test names stable (the default printer dumps the
// struct's bytes, including the name pointer).
void PrintTo(const Shape& s, std::ostream* os) { *os << s.name; }

std::vector<index_t> band(const Shape& s) {
  std::vector<index_t> bins(static_cast<std::size_t>(s.nbins));
  std::iota(bins.begin(), bins.end(), s.first_bin);
  return bins;
}

std::vector<float> random_traces(std::uint64_t seed, index_t n) {
  Rng rng(seed);
  return tlrwse::testing::random_vector<float>(rng, n);
}

bool bitwise_equal(const void* a, const void* b, std::size_t bytes) {
  return std::memcmp(a, b, bytes) == 0;
}

class BandTransformShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(BandTransformShapes, ForwardMatchesRfftAtRetainedBins) {
  const Shape s = GetParam();
  const BandTransform f(s.nt, band(s));
  const index_t ntr = 5;
  const auto x = random_traces(1, s.nt * ntr);
  std::vector<cf32> spec(static_cast<std::size_t>(s.nbins * ntr));
  f.forward(x, ntr, spec, 0);

  double num = 0.0, den = 0.0;
  for (index_t tr = 0; tr < ntr; ++tr) {
    const std::vector<double> trace(x.begin() + tr * s.nt,
                                    x.begin() + (tr + 1) * s.nt);
    const auto ref = fft::rfft(trace);
    for (index_t q = 0; q < s.nbins; ++q) {
      const cf64 want = ref[static_cast<std::size_t>(s.first_bin + q)];
      const cf64 got(spec[static_cast<std::size_t>(q * ntr + tr)]);
      num += std::norm(got - want);
      den += std::norm(want);
    }
  }
  EXPECT_LT(std::sqrt(num / den), 2e-6) << s.name;
}

TEST_P(BandTransformShapes, InverseMatchesIrfftOfBandSpectrum) {
  const Shape s = GetParam();
  const BandTransform f(s.nt, band(s));
  Rng rng(2);
  const auto spec =
      tlrwse::testing::random_vector<cf32>(rng, s.nbins);  // one trace
  std::vector<float> y(static_cast<std::size_t>(s.nt));
  f.inverse(spec, 1, y, 0);

  std::vector<cf64> full(static_cast<std::size_t>(s.nt / 2 + 1), cf64{});
  for (index_t q = 0; q < s.nbins; ++q) {
    full[static_cast<std::size_t>(s.first_bin + q)] =
        cf64(spec[static_cast<std::size_t>(q)]);
  }
  const auto ref = fft::irfft(full, s.nt);
  double num = 0.0, den = 0.0;
  for (std::size_t t = 0; t < y.size(); ++t) {
    num += std::pow(static_cast<double>(y[t]) - ref[t], 2);
    den += ref[t] * ref[t];
  }
  EXPECT_LT(std::sqrt(num / den), 2e-6) << s.name;
}

// <C x, Y> = <x, C^T Y> with the inverse = (2/nt) C^T: the inverse is
// exactly the scaled transpose of the forward, which is what makes the
// MDC adjoint exact.
TEST_P(BandTransformShapes, InverseIsTheScaledAdjointOfForward) {
  const Shape s = GetParam();
  const BandTransform f(s.nt, band(s));
  const index_t ntr = 3;
  const auto x = random_traces(3, s.nt * ntr);
  Rng rng(4);
  const auto yspec = tlrwse::testing::random_vector<cf32>(rng, s.nbins * ntr);
  std::vector<cf32> fx(yspec.size());
  std::vector<float> fy(x.size());
  f.forward(x, ntr, fx, 0);
  f.inverse(yspec, ntr, fy, 0);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < fx.size(); ++i) {
    lhs += static_cast<double>(fx[i].real()) * yspec[i].real() +
           static_cast<double>(fx[i].imag()) * yspec[i].imag();
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * fy[i];
  }
  rhs *= static_cast<double>(s.nt) / 2.0;
  EXPECT_NEAR(lhs, rhs, 1e-5 * (std::abs(lhs) + std::abs(rhs))) << s.name;
}

// Every column of a batched call — any batch size, any team size — is
// bitwise equal to the single-trace call on that column.
TEST_P(BandTransformShapes, ColumnsAreBitwiseAcrossBatchAndTeamSize) {
  const Shape s = GetParam();
  const BandTransform f(s.nt, band(s));
  for (const index_t ntr : {index_t{8}, index_t{70}}) {
    const auto x = random_traces(5, s.nt * ntr);
    Rng rng(6);
    const auto yspec =
        tlrwse::testing::random_vector<cf32>(rng, s.nbins * ntr);
    for (const int threads : {1, 3, 0}) {
      std::vector<cf32> fx(static_cast<std::size_t>(s.nbins * ntr));
      std::vector<float> fy(x.size());
      f.forward(x, ntr, fx, threads);
      f.inverse(yspec, ntr, fy, threads);
      for (index_t tr = 0; tr < ntr; ++tr) {
        std::vector<cf32> one(static_cast<std::size_t>(s.nbins));
        f.forward(std::span<const float>(x).subspan(
                      static_cast<std::size_t>(tr * s.nt),
                      static_cast<std::size_t>(s.nt)),
                  1, one, 1);
        std::vector<cf32> col(static_cast<std::size_t>(s.nbins));
        for (index_t q = 0; q < s.nbins; ++q) {
          col[static_cast<std::size_t>(q)] =
              yspec[static_cast<std::size_t>(q * ntr + tr)];
          ASSERT_TRUE(bitwise_equal(&one[static_cast<std::size_t>(q)],
                                    &fx[static_cast<std::size_t>(q * ntr + tr)],
                                    sizeof(cf32)))
              << s.name << " ntr=" << ntr << " threads=" << threads
              << " trace=" << tr << " bin=" << q;
        }
        std::vector<float> back(static_cast<std::size_t>(s.nt));
        f.inverse(col, 1, back, 1);
        ASSERT_TRUE(bitwise_equal(back.data(), fy.data() + tr * s.nt,
                                  back.size() * sizeof(float)))
            << s.name << " ntr=" << ntr << " threads=" << threads
            << " trace=" << tr;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BandTransformShapes,
    ::testing::Values(Shape{"survey_nt256", 256, 4, 27},
                      Shape{"paper_nt1125", 1125, 20, 230},
                      Shape{"odd_nt97", 97, 5, 31}),
    [](const ::testing::TestParamInfo<Shape>& p) {
      return std::string(p.param.name);
    });

TEST(BandTransform, RejectsDcNyquistAndDuplicateBins) {
  EXPECT_THROW(BandTransform(64, {0}), std::invalid_argument);
  EXPECT_THROW(BandTransform(64, {32}), std::invalid_argument);
  EXPECT_THROW(BandTransform(64, {3, 5, 3}), std::invalid_argument);
  EXPECT_THROW(BandTransform(64, {}), std::invalid_argument);
  // Odd nt has no Nyquist bin: (nt - 1) / 2 is a regular bin.
  EXPECT_NO_THROW(BandTransform(97, {48}));
  EXPECT_THROW(BandTransform(97, {49}), std::invalid_argument);
}

TEST(BandTransform, RejectsMismatchedSizes) {
  const BandTransform f(64, {3, 7});
  std::vector<float> x(64 * 2);
  std::vector<cf32> spec(3);
  EXPECT_THROW(f.forward(x, 2, spec, 0), std::invalid_argument);
  EXPECT_THROW(f.inverse(spec, 2, x, 0), std::invalid_argument);
}

// MdcOperator through the transform: apply, adjoint and a 3-RHS batch are
// bitwise equal at inner team sizes 1, 3 and the runtime default, with
// enough traces (70 sources, 40 receivers) that the transform splits them
// over several blocks.
TEST(BandTransform, MdcOperatorIsBitwiseAcrossInnerThreads) {
  const index_t nt = 256, ns = 70, nr = 40, nrhs = 3;
  const std::vector<index_t> bins{4, 9, 13, 21, 30};
  std::vector<float> ref_y, ref_x, ref_batch;
  for (const int threads : {1, 3, 0}) {
    std::vector<std::unique_ptr<FrequencyMvm>> kernels;
    for (std::size_t q = 0; q < bins.size(); ++q) {
      kernels.push_back(
          std::make_unique<DenseMvm>(tlrwse::testing::oscillatory_matrix<cf32>(
              ns, nr, 5.0 + static_cast<double>(q))));
    }
    MdcOperator op(nt, bins, std::move(kernels));
    op.set_inner_threads(threads);
    const auto x = random_traces(7, op.cols());
    const auto y = random_traces(8, op.rows());
    const auto xb = random_traces(9, op.cols() * nrhs);
    std::vector<float> ay(y.size()), atx(x.size()), ab(y.size() * nrhs);
    op.apply(x, ay);
    op.apply_adjoint(y, atx);
    op.apply_batch(xb, ab, nrhs);
    if (ref_y.empty()) {
      ref_y = ay;
      ref_x = atx;
      ref_batch = ab;
      continue;
    }
    EXPECT_TRUE(bitwise_equal(ay.data(), ref_y.data(), ay.size() * 4))
        << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(atx.data(), ref_x.data(), atx.size() * 4))
        << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(ab.data(), ref_batch.data(), ab.size() * 4))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace tlrwse::mdc
