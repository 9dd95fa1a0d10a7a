// Tests for src/kernels: the swappable single-pass codec kernel backends.
//
// The hard invariant is bit-identity: the AVX2 backend must produce the
// same bytes as the scalar reference for every kernel, and the fused
// kernel paths inside the codecs must produce the same wire bytes, EF
// residuals, and aggregates as the legacy multi-pass paths. These tests
// close the loop at three levels: per-kernel (randomized + exhaustive
// cross-backend checks), per-primitive (fused vs legacy composition), and
// per-scheme (whole rounds under both backends).
#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/chunked_collectives.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/codec.h"
#include "core/factory.h"
#include "core/synthetic_grad.h"
#include "numeric/half.h"
#include "numeric/precision.h"
#include "quant/quantize.h"
#include "quant/satint.h"
#include "sparse/topk.h"
#include "tensor/layout.h"

namespace gcs {
namespace {

using kernels::Backend;

/// Forces a kernel backend for the current scope; restores auto-dispatch.
class BackendGuard {
 public:
  explicit BackendGuard(const char* name) {
    kernels::force_backend_for_testing(name);
  }
  ~BackendGuard() { kernels::force_backend_for_testing(nullptr); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

bool have_avx2() { return kernels::avx2_supported(); }

/// Input floats that stress every branch of the FP16 conversion: zeros,
/// denormals (both widths), NaN payloads, infinities, overflow, and
/// round-to-nearest-even boundary patterns.
std::vector<float> special_floats() {
  std::vector<float> v = {
      0.0f, -0.0f, 1.0f, -1.0f, 65504.0f, -65504.0f, 65520.0f, 65536.0f,
      1e-8f, -1e-8f, 5.96e-8f, 6.1e-5f, 6.097e-5f, 0.5f, 2.0f / 3.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest(),
  };
  // Signaling-NaN-adjacent and denormal bit patterns.
  for (std::uint32_t bits : {0x7F800001u, 0xFF800001u, 0x7FC00001u,
                             0x00000001u, 0x807FFFFFu, 0x00800000u,
                             0x387FC000u, 0x387FE000u, 0x33000000u}) {
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    v.push_back(f);
  }
  return v;
}

TEST(Kernels, BackendNamesAndDispatch) {
  EXPECT_STREQ(kernels::scalar().name, "scalar");
  {
    BackendGuard g("scalar");
    EXPECT_STREQ(kernels::backend_name(), "scalar");
  }
  if (have_avx2()) {
    BackendGuard g("avx2");
    EXPECT_STREQ(kernels::backend_name(), "avx2");
  }
  EXPECT_THROW(kernels::force_backend_for_testing("neon"), Error);
}

TEST(Kernels, Fp16ToFp32CrossBackendExhaustive) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  // Every possible half bit pattern, including every NaN payload.
  std::vector<std::uint16_t> bits(1u << 16);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] = static_cast<std::uint16_t>(i);
  }
  std::vector<float> ref(bits.size()), got(bits.size());
  kernels::scalar().fp16_to_fp32(bits.data(), bits.size(), ref.data());
  kernels::avx2().fp16_to_fp32(bits.data(), bits.size(), got.data());
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)),
            0);
  // And the scalar kernel is literally the reference conversion.
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const float direct = half_bits_to_float(bits[i]);
    ASSERT_EQ(std::memcmp(&ref[i], &direct, sizeof(float)), 0) << i;
  }
}

TEST(Kernels, Fp32ToFp16CrossBackendRandomAndSpecial) {
  std::vector<float> x = special_floats();
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    // Uniform bit patterns cover denormals, NaNs, and extreme exponents.
    const auto bits = rng.next_u32();
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    x.push_back(f);
  }
  std::vector<std::uint16_t> ref(x.size());
  kernels::scalar().fp32_to_fp16(x.data(), x.size(), ref.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(ref[i], float_to_half_bits(x[i])) << "i=" << i;
  }
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  std::vector<std::uint16_t> got(x.size());
  kernels::avx2().fp32_to_fp16(x.data(), x.size(), got.data());
  EXPECT_EQ(ref, got);
  // Runt lengths hit the scalar tail of the vectorized loop.
  for (std::size_t n = 1; n <= 17; ++n) {
    std::vector<std::uint16_t> a(n), b(n);
    kernels::scalar().fp32_to_fp16(x.data(), n, a.data());
    kernels::avx2().fp32_to_fp16(x.data(), n, b.data());
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

TEST(Kernels, GatherFp16CrossBackend) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(11);
  std::vector<float> x = special_floats();
  for (int i = 0; i < 5000; ++i) {
    x.push_back(static_cast<float>(rng.next_gaussian()));
  }
  for (std::size_t n : {1u, 7u, 8u, 33u, 1000u}) {
    std::vector<std::uint32_t> idx(n);
    for (auto& v : idx) {
      v = static_cast<std::uint32_t>(rng.next_u64() % x.size());
    }
    std::vector<std::uint16_t> a(n), b(n);
    kernels::scalar().gather_fp32_to_fp16(x.data(), idx.data(), n, a.data());
    kernels::avx2().gather_fp32_to_fp16(x.data(), idx.data(), n, b.data());
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

TEST(Kernels, FwhtLevelCrossBackend) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(13);
  for (std::size_t n : {2u, 8u, 12u, 20u, 64u, 256u, 1024u}) {
    for (std::size_t h = 1; 2 * h <= n; h *= 2) {
      if (n % (2 * h) != 0) continue;
      std::vector<float> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<float>(rng.next_gaussian());
      }
      // A NaN and a denormal must propagate identically (true add/sub in
      // the SIMD butterflies, no sign-trick shortcuts).
      if (n >= 8) {
        a[1] = std::numeric_limits<float>::quiet_NaN();
        a[5] = std::numeric_limits<float>::denorm_min();
      }
      b = a;
      kernels::scalar().fwht_level(a.data(), n, h);
      kernels::avx2().fwht_level(b.data(), n, h);
      ASSERT_EQ(std::memcmp(a.data(), b.data(), n * sizeof(float)), 0)
          << "n=" << n << " h=" << h;
    }
  }
}

TEST(Kernels, MulAbsCountCollectCrossBackend) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(17);
  for (std::size_t n : {1u, 5u, 8u, 100u, 1027u}) {
    std::vector<float> x(n), s(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(rng.next_gaussian());
      s[i] = rng.next_sign();
    }
    if (n >= 4) {
      x[0] = -0.0f;
      x[3] = std::numeric_limits<float>::quiet_NaN();
    }
    std::vector<float> a(n), b(n);
    kernels::scalar().mul(x.data(), s.data(), n, a.data());
    kernels::avx2().mul(x.data(), s.data(), n, b.data());
    ASSERT_EQ(std::memcmp(a.data(), b.data(), n * sizeof(float)), 0);
    auto xa = x, xb = x;
    kernels::scalar().mul_inplace(xa.data(), s.data(), n);
    kernels::avx2().mul_inplace(xb.data(), s.data(), n);
    ASSERT_EQ(std::memcmp(xa.data(), xb.data(), n * sizeof(float)), 0);
    kernels::scalar().abs(x.data(), n, a.data());
    kernels::avx2().abs(x.data(), n, b.data());
    ASSERT_EQ(std::memcmp(a.data(), b.data(), n * sizeof(float)), 0);
    const float t = 0.5f;
    EXPECT_EQ(kernels::scalar().count_gt(a.data(), n, t),
              kernels::avx2().count_gt(a.data(), n, t));
    std::vector<std::uint32_t> ia(n), ib(n);
    const auto ca = kernels::scalar().collect_ge(a.data(), n, t, ia.data());
    const auto cb = kernels::avx2().collect_ge(a.data(), n, t, ib.data());
    ASSERT_EQ(ca, cb);
    ia.resize(ca);
    ib.resize(cb);
    EXPECT_EQ(ia, ib);
  }
}

TEST(Kernels, AddCrossBackend) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(91);
  for (std::size_t n : {1u, 7u, 8u, 64u, 1029u}) {
    std::vector<float> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.next_gaussian());
      b[i] = static_cast<float>(rng.next_gaussian());
    }
    if (n >= 8) {
      a[1] = std::numeric_limits<float>::quiet_NaN();
      a[2] = std::numeric_limits<float>::infinity();
      b[2] = -std::numeric_limits<float>::infinity();  // inf + -inf = NaN
      a[5] = -0.0f;
      b[5] = -0.0f;  // -0 + -0 = -0, sign must survive
    }
    std::vector<float> ra(n), rb(n);
    kernels::scalar().add(a.data(), b.data(), n, ra.data());
    kernels::avx2().add(a.data(), b.data(), n, rb.data());
    ASSERT_EQ(std::memcmp(ra.data(), rb.data(), n * sizeof(float)), 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (std::isnan(a[i] + b[i])) continue;
      EXPECT_EQ(ra[i], a[i] + b[i]);
    }
  }
  // Both operands NaN with distinct signs and payloads, quiet and
  // signaling, in both operand orders: which payload survives depends on
  // operand order, so both backends must make the same choice in the
  // vector blocks and in the tail.
  const std::vector<std::uint32_t> nans = {0x7FC01234u, 0xFFC00000u,
                                           0x7FC00000u, 0xFFC05678u,
                                           0x7F800001u, 0xFF812345u};
  for (std::size_t n = 1; n <= 17; ++n) {
    for (const std::uint32_t x : nans) {
      for (const std::uint32_t y : nans) {
        if (x == y) continue;
        std::vector<float> a(n, std::bit_cast<float>(x));
        std::vector<float> b(n, std::bit_cast<float>(y));
        if (n > 2) b[n / 2] = 1.5f;  // one NaN + finite lane per call
        std::vector<float> ra(n), rb(n);
        kernels::scalar().add(a.data(), b.data(), n, ra.data());
        kernels::avx2().add(a.data(), b.data(), n, rb.data());
        ASSERT_EQ(std::memcmp(ra.data(), rb.data(), n * sizeof(float)), 0)
            << std::hex << x << " + " << y << " n=" << std::dec << n;
      }
    }
  }
}

/// The legacy Fp16Sum hop: add in FP32, round back to FP16.
std::uint16_t fp16_sum_reference(std::uint16_t a, std::uint16_t b) {
  return float_to_half_bits(half_bits_to_float(a) + half_bits_to_float(b));
}

TEST(Kernels, Fp16SumCrossBackend) {
  // Addends covering every special case of the hop: signed zeros,
  // denormals, the normal/denormal boundary, values whose sum overflows
  // to Inf (or rounds to it on a tie), infinities and quiet/signaling
  // NaNs. Together with all 2^16 accumulators this puts a NaN in either
  // operand and in both.
  const std::vector<std::uint16_t> addends = {
      0x0000, 0x8000, 0x0001, 0x8001, 0x03FF, 0x83FF, 0x0400, 0x8400,
      0x3C00, 0xBC00, 0x3555, 0x7BFF, 0xFBFF, 0x7800, 0xF800, 0x7BFE,
      0x7C00, 0xFC00, 0x7E00, 0xFE00, 0x7C01, 0xFC01, 0x7DFF, 0x7FFF};
  const std::size_t n = std::size_t{1} << 16;
  std::vector<std::uint16_t> acc0(n), in(n), ref(n);
  for (std::size_t i = 0; i < n; ++i) acc0[i] = static_cast<std::uint16_t>(i);
  // Rotating the addends across the lanes meets every accumulator with
  // every addend, and mixes special and finite lanes inside each vector.
  for (std::size_t r = 0; r < addends.size(); ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = addends[(i + r) % addends.size()];
      ref[i] = fp16_sum_reference(acc0[i], in[i]);
    }
    std::vector<std::uint16_t> got = acc0;
    kernels::scalar().fp16_sum(got.data(), in.data(), n);
    ASSERT_EQ(got, ref) << "scalar, rotation " << r;
    if (have_avx2()) {
      got = acc0;
      kernels::avx2().fp16_sum(got.data(), in.data(), n);
      ASSERT_EQ(got, ref) << "avx2, rotation " << r;
    }
  }
  EXPECT_EQ(fp16_sum_reference(0x7BFF, 0x7BFF), 0x7C00);  // overflow -> Inf
  EXPECT_EQ(fp16_sum_reference(0x8000, 0x8000), 0x8000);  // -0 + -0 = -0

  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  // Runt lengths and unaligned starts hit the scalar tail of the
  // vectorized loop.
  Rng rng(93);
  std::vector<std::uint16_t> a(40), b(40);
  for (auto& v : a) v = static_cast<std::uint16_t>(rng.next_u32());
  for (auto& v : b) v = static_cast<std::uint16_t>(rng.next_u32());
  b[3] = 0x7C01;  // a NaN lane inside the runs
  for (std::size_t len = 1; len <= 17; ++len) {
    for (std::size_t off : {0u, 1u, 3u}) {
      std::vector<std::uint16_t> x = a, y = a;
      kernels::scalar().fp16_sum(x.data() + off, b.data() + off, len);
      kernels::avx2().fp16_sum(y.data() + off, b.data() + off, len);
      ASSERT_EQ(x, y) << "n=" << len << " offset=" << off;
    }
  }
}

/// The legacy SatIntSum hop: unpack both sides into int32 lanes, Sat
/// lane-wise, repack.
std::size_t sat_add_packed_reference(ByteBuffer& acc, const ByteBuffer& in,
                                     unsigned bits) {
  const std::size_t lanes = acc.size() * (8 / bits);
  auto a = unpack_signed_lanes(acc, lanes, bits);
  const auto b = unpack_signed_lanes(in, lanes, bits);
  SatStats stats;
  sat_add_lanes(a, b, bits, &stats);
  acc = pack_signed_lanes(a, bits);
  return static_cast<std::size_t>(stats.clips);
}

TEST(Kernels, SatAddPackedCrossBackendExhaustive) {
  // Every (acc, in) byte pair: all lane-value combinations of every lane
  // width, and 2048 vectors, enough to fold the per-byte clip tally.
  const std::size_t n = std::size_t{1} << 16;
  ByteBuffer acc0(n), in(n);
  for (std::size_t k = 0; k < n; ++k) {
    acc0[k] = static_cast<std::byte>(k & 0xFFu);
    in[k] = static_cast<std::byte>(k >> 8);
  }
  auto* in_u8 = reinterpret_cast<const std::uint8_t*>(in.data());
  for (unsigned bits : {2u, 4u, 8u}) {
    ByteBuffer ref = acc0;
    const std::size_t ref_clips = sat_add_packed_reference(ref, in, bits);
    EXPECT_GT(ref_clips, 0u);
    ByteBuffer got = acc0;
    EXPECT_EQ(kernels::scalar().sat_add_packed(
                  reinterpret_cast<std::uint8_t*>(got.data()), in_u8, n, bits),
              ref_clips)
        << "scalar b=" << bits;
    ASSERT_EQ(got, ref) << "scalar b=" << bits;
    if (!have_avx2()) continue;
    got = acc0;
    EXPECT_EQ(kernels::avx2().sat_add_packed(
                  reinterpret_cast<std::uint8_t*>(got.data()), in_u8, n, bits),
              ref_clips)
        << "avx2 b=" << bits;
    ASSERT_EQ(got, ref) << "avx2 b=" << bits;
    // Runt lengths and unaligned starts hit the scalar tail.
    for (std::size_t len = 1; len <= 70; ++len) {
      const std::size_t off = (len * 37) % 1000;
      ByteBuffer x = acc0, y = acc0;
      const std::size_t cx = kernels::scalar().sat_add_packed(
          reinterpret_cast<std::uint8_t*>(x.data()) + off, in_u8 + off, len,
          bits);
      const std::size_t cy = kernels::avx2().sat_add_packed(
          reinterpret_cast<std::uint8_t*>(y.data()) + off, in_u8 + off, len,
          bits);
      ASSERT_EQ(cx, cy) << "b=" << bits << " n=" << len;
      ASSERT_EQ(x, y) << "b=" << bits << " n=" << len;
    }
  }
}

/// The sequential fold min_max is contractually pinned to.
void min_max_reference(const std::vector<float>& x, float* lo, float* hi) {
  float mn = x[0], mx = x[0];
  for (std::size_t i = 1; i < x.size(); ++i) {
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
  *lo = mn;
  *hi = mx;
}

// ---- PowerSGD's low-rank products: matmul, matmul_at, matmul_bt ----

enum class LowRank { kMul, kMulAt, kMulBt };

const char* low_rank_name(LowRank which) {
  switch (which) {
    case LowRank::kMul: return "matmul";
    case LowRank::kMulAt: return "matmul_at";
    case LowRank::kMulBt: return "matmul_bt";
  }
  return "?";
}

/// Runs one product; (m, k, n) are the kernel's own parameters, so A holds
/// m*k floats and B k*n for all three. C starts as junk: the kernel must
/// write every entry.
std::vector<float> low_rank(const Backend& backend, LowRank which,
                            const std::vector<float>& a,
                            const std::vector<float>& b, std::size_t m,
                            std::size_t k, std::size_t n) {
  std::vector<float> c(m * n, -7.0f);
  const auto kernel = which == LowRank::kMul     ? backend.matmul
                      : which == LowRank::kMulAt ? backend.matmul_at
                                                 : backend.matmul_bt;
  kernel(a.data(), b.data(), m, k, n, c.data());
  return c;
}

std::string float_bits_hex(float x) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x",
                static_cast<unsigned>(std::bit_cast<std::uint32_t>(x)));
  return buf;
}

/// memcmp of the AVX2 product against the scalar reference.
::testing::AssertionResult low_rank_identical(LowRank which,
                                              const std::vector<float>& a,
                                              const std::vector<float>& b,
                                              std::size_t m, std::size_t k,
                                              std::size_t n) {
  const auto s = low_rank(kernels::scalar(), which, a, b, m, k, n);
  const auto v = low_rank(kernels::avx2(), which, a, b, m, k, n);
  if (std::memcmp(s.data(), v.data(), s.size() * sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
  std::size_t i = 0;
  while (float_bits_hex(s[i]) == float_bits_hex(v[i])) ++i;
  return ::testing::AssertionFailure()
         << low_rank_name(which) << " m=" << m << " k=" << k << " n=" << n
         << ": c[" << i << "] scalar " << float_bits_hex(s[i]) << " avx2 "
         << float_bits_hex(v[i]);
}

/// Gaussian entries with about `zero_pct`% exact +-0 (the skipped A
/// factors) and 1% denormals.
std::vector<float> low_rank_operand(std::size_t n, Rng& rng,
                                    unsigned zero_pct) {
  std::vector<float> x(n);
  for (auto& v : x) {
    const auto roll = rng.next_below(100);
    if (roll < zero_pct) {
      v = roll % 2 == 0 ? 0.0f : -0.0f;
    } else if (roll == 99) {
      v = std::numeric_limits<float>::denorm_min() *
          static_cast<float>(1 + rng.next_below(1000));
    } else {
      v = static_cast<float>(rng.next_gaussian());
    }
  }
  return x;
}

constexpr LowRank kLowRankKernels[] = {LowRank::kMul, LowRank::kMulAt,
                                       LowRank::kMulBt};

TEST(Kernels, LowRankProductsCrossBackendRuntShapes) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  // Every m, k in 1..17 hits each scalar tail and each 8- and 16-lane
  // block; r in 1..9 covers every accumulator-group width and one pass
  // past it. For matmul_bt the rank is the summed k and the runt runs
  // over the output columns.
  Rng rng(141);
  for (std::size_t m = 1; m <= 17; ++m) {
    for (std::size_t x = 1; x <= 17; ++x) {
      for (std::size_t r = 1; r <= 9; ++r) {
        for (const LowRank which : kLowRankKernels) {
          const bool bt = which == LowRank::kMulBt;
          const std::size_t k = bt ? r : x, n = bt ? x : r;
          const auto a = low_rank_operand(m * k, rng, 10);
          const auto b = low_rank_operand(k * n, rng, 10);
          ASSERT_TRUE(low_rank_identical(which, a, b, m, k, n));
        }
      }
    }
  }
}

TEST(Kernels, LowRankProductsCrossBackendBenchShapes) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  // The bulk benchmark's layer matrices (rows x cols), with about 6% exact
  // zeros in the skipped operand.
  Rng rng(142);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{256, 768}, {1024, 256},
        {256, 256}, {768, 256}}) {
    for (std::size_t r : {1u, 4u, 9u}) {
      const auto m = low_rank_operand(rows * cols, rng, 6);
      // P = M Q, Q = M^T P, M_hat = P Q^T.
      ASSERT_TRUE(low_rank_identical(LowRank::kMul, m,
                                     low_rank_operand(cols * r, rng, 6),
                                     rows, cols, r));
      ASSERT_TRUE(low_rank_identical(LowRank::kMulAt, m,
                                     low_rank_operand(rows * r, rng, 6),
                                     cols, rows, r));
      ASSERT_TRUE(low_rank_identical(LowRank::kMulBt,
                                     low_rank_operand(rows * r, rng, 6),
                                     low_rank_operand(cols * r, rng, 6),
                                     rows, r, cols));
    }
  }
}

TEST(Kernels, LowRankProductsCrossBackendSpecialValues) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  std::vector<float> specials = {
      0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::max(), std::numeric_limits<float>::lowest()};
  // Quiet and signaling NaNs of both signs and distinct payloads: two of
  // them meeting in one sum must resolve as the reference resolves them.
  for (std::uint32_t bits :
       {0x7FC00000u, 0xFFC00000u, 0x7FC01234u, 0x7F800001u, 0xFF800123u}) {
    specials.push_back(std::bit_cast<float>(bits));
  }
  Rng rng(143);
  for (const auto& [m, x, r] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{1, 1, 1},
        {3, 5, 2}, {8, 8, 4}, {9, 17, 4}, {16, 16, 4}, {17, 9, 5},
        {24, 33, 3}, {40, 24, 9}}) {
    for (const LowRank which : kLowRankKernels) {
      const bool bt = which == LowRank::kMulBt;
      const std::size_t k = bt ? r : x, n = bt ? x : r;
      for (const float special : specials) {
        for (int where = 0; where < 3; ++where) {  // A, B, both
          for (int trial = 0; trial < 4; ++trial) {
            auto a = low_rank_operand(m * k, rng, 15);
            auto b = low_rank_operand(k * n, rng, 15);
            const std::size_t hits = 1 + rng.next_below(3);
            for (std::size_t h = 0; h < hits; ++h) {
              if (where != 1) a[rng.next_below(a.size())] = special;
              if (where != 0) b[rng.next_below(b.size())] = special;
            }
            ASSERT_TRUE(low_rank_identical(which, a, b, m, k, n))
                << "special " << float_bits_hex(special) << " where "
                << where;
          }
        }
      }
      // Dense mixes: distinct NaN payloads meet inside one sum, where the
      // surviving payload depends on operand order.
      for (int trial = 0; trial < 8; ++trial) {
        auto a = low_rank_operand(m * k, rng, 15);
        auto b = low_rank_operand(k * n, rng, 15);
        for (auto* operand : {&a, &b}) {
          for (auto& v : *operand) {
            if (rng.next_below(5) == 0) {
              v = specials[rng.next_below(specials.size())];
            }
          }
        }
        ASSERT_TRUE(low_rank_identical(which, a, b, m, k, n))
            << "dense specials, trial " << trial;
      }
      // Finite inputs that overflow: Inf - Inf turns sums into NaN on the
      // vector path itself (no input holds a non-finite value).
      auto a = low_rank_operand(m * k, rng, 15);
      auto b = low_rank_operand(k * n, rng, 15);
      for (auto& v : a) v *= 3e37f;
      for (auto& v : b) v *= 3e37f;
      ASSERT_TRUE(low_rank_identical(which, a, b, m, k, n)) << "overflow";
    }
  }
}

TEST(Kernels, LowRankProductsSkipZeroFactorTerms) {
  // A +-0 A factor drops its term, so an Inf or NaN B partner never
  // reaches the sum; a NaN A factor is not skipped.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<const Backend*> backends = {&kernels::scalar()};
  if (have_avx2()) backends.push_back(&kernels::avx2());
  for (const Backend* backend : backends) {
    // matmul: A (1 x 2) = [0, 2], B (2 x 2) = [[Inf, NaN], [3, -1]].
    EXPECT_EQ(low_rank(*backend, LowRank::kMul, {-0.0f, 2.0f},
                       {inf, nan, 3.0f, -1.0f}, 1, 2, 2),
              (std::vector<float>{6.0f, -2.0f}))
        << backend->name;
    // matmul_at: A stored k x m = 2 x 1 = [0; 2], same B.
    EXPECT_EQ(low_rank(*backend, LowRank::kMulAt, {0.0f, 2.0f},
                       {inf, nan, 3.0f, -1.0f}, 1, 2, 2),
              (std::vector<float>{6.0f, -2.0f}))
        << backend->name;
    // matmul_bt: A (1 x 2) = [0, 2], B stored n x k = [[Inf, 3], [NaN, -1]].
    EXPECT_EQ(low_rank(*backend, LowRank::kMulBt, {0.0f, 2.0f},
                       {inf, 3.0f, nan, -1.0f}, 1, 2, 2),
              (std::vector<float>{6.0f, -2.0f}))
        << backend->name;
    // An all-zero A row gives +0 (the sum's start), never -0.
    const auto zero_row = low_rank(*backend, LowRank::kMul, {-0.0f, -0.0f},
                                   {-1.0f, -1.0f}, 1, 2, 1);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(zero_row[0]), 0u) << backend->name;
    const auto nan_factor = low_rank(*backend, LowRank::kMul, {nan, 1.0f},
                                     {0.0f, 1.0f}, 1, 2, 1);
    EXPECT_TRUE(std::isnan(nan_factor[0])) << backend->name;
  }
}

TEST(Kernels, MinMaxCrossBackendIncludingNanAndSignedZero) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(92);
  for (std::size_t n : {1u, 2u, 9u, 16u, 63u, 64u, 1031u}) {
    for (int variant = 0; variant < 4; ++variant) {
      std::vector<float> x(n);
      for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
      if (variant == 1) x[n / 2] = std::numeric_limits<float>::quiet_NaN();
      if (variant == 2) x[0] = std::numeric_limits<float>::quiet_NaN();
      if (variant == 3) {
        // Mixed-sign zeros at fold-order-sensitive spots: the result's
        // zero sign must match the sequential fold exactly.
        for (auto& v : x) v = 0.0f;
        if (n > 1) x[1] = -0.0f;
        if (n > 8) x[8] = -0.0f;
      }
      float ref_lo, ref_hi, s_lo, s_hi, v_lo, v_hi;
      min_max_reference(x, &ref_lo, &ref_hi);
      kernels::scalar().min_max(x.data(), n, &s_lo, &s_hi);
      kernels::avx2().min_max(x.data(), n, &v_lo, &v_hi);
      EXPECT_EQ(std::memcmp(&s_lo, &ref_lo, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&s_hi, &ref_hi, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&v_lo, &s_lo, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&v_hi, &s_hi, sizeof(float)), 0);
    }
  }
}

/// Legacy three-pass THC level encode: stochastic levels, centered lanes,
/// saturating clamp, offset-binary packing. The fused kernel must emit
/// identical bytes.
ByteBuffer thc_encode_reference(std::span<const float> x,
                                std::span<const float> u, float lo, float hi,
                                unsigned q, unsigned b) {
  std::vector<std::int32_t> lanes(x.size());
  const std::int32_t offset = 1 << (q - 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    lanes[i] =
        static_cast<std::int32_t>(stochastic_level(x[i], lo, hi, q, u[i])) -
        offset;
  }
  sat_clamp_lanes(lanes, b);
  return pack_signed_lanes(lanes, b);
}

TEST(Kernels, ThcEncodeLanesMatchesLegacyComposition) {
  Rng rng(23);
  for (const auto& [q, b] : std::vector<std::pair<unsigned, unsigned>>{
           {2, 2}, {4, 4}, {8, 8}, {2, 4}, {4, 8}, {2, 8}}) {
    for (std::size_t n : {8u, 16u, 120u, 1024u}) {
      ASSERT_EQ(n * b % 8, 0u);
      std::vector<float> x(n), u(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = static_cast<float>(rng.next_gaussian());
        u[i] = rng.next_float();
      }
      float lo = x[0], hi = x[0];
      for (float v : x) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      for (const auto& [rlo, rhi] :
           std::vector<std::pair<float, float>>{{lo, hi}, {lo, lo}}) {
        const ByteBuffer ref =
            thc_encode_reference(x, u, rlo, rhi, q, b);
        ByteBuffer got(ref.size());
        kernels::scalar().thc_encode_lanes(
            x.data(), u.data(), n, rlo, rhi, q, b,
            reinterpret_cast<std::uint8_t*>(got.data()));
        ASSERT_EQ(got, ref) << "scalar q=" << q << " b=" << b << " n=" << n;
        if (have_avx2()) {
          ByteBuffer got2(ref.size());
          kernels::avx2().thc_encode_lanes(
              x.data(), u.data(), n, rlo, rhi, q, b,
              reinterpret_cast<std::uint8_t*>(got2.data()));
          ASSERT_EQ(got2, ref) << "avx2 q=" << q << " b=" << b << " n=" << n;
        }
      }
    }
  }
}

TEST(Kernels, ThcDecodeLanesMatchesLegacyComposition) {
  Rng rng(29);
  for (const auto& [q, b] : std::vector<std::pair<unsigned, unsigned>>{
           {2, 2}, {4, 4}, {8, 8}, {2, 4}, {4, 8}}) {
    for (std::size_t n : {8u, 16u, 120u, 1024u}) {
      for (unsigned workers : {1u, 2u, 8u}) {
        ByteBuffer wire(n * b / 8);
        for (auto& byte : wire) {
          byte = static_cast<std::byte>(rng.next_u64() & 0xFF);
        }
        const float lo = -0.75f, hi = 1.25f;
        const std::int32_t offset = 1 << (q - 1);
        const auto sums = unpack_signed_lanes(wire, n, b);
        std::vector<float> ref(n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::int64_t level_sum =
              static_cast<std::int64_t>(sums[i]) +
              static_cast<std::int64_t>(workers) * offset;
          ref[i] =
              dequantize_level_sum(level_sum, workers, {lo, hi}, q);
        }
        std::vector<float> got(n);
        kernels::scalar().thc_decode_lanes(
            reinterpret_cast<const std::uint8_t*>(wire.data()), n, lo, hi,
            q, b, workers, got.data());
        ASSERT_EQ(
            std::memcmp(ref.data(), got.data(), n * sizeof(float)), 0)
            << "scalar q=" << q << " b=" << b;
        // Degenerate range: every coordinate decodes to lo * workers.
        std::vector<float> degen(n);
        kernels::scalar().thc_decode_lanes(
            reinterpret_cast<const std::uint8_t*>(wire.data()), n, lo, lo,
            q, b, workers, degen.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(degen[i], lo * static_cast<float>(workers));
        }
        if (have_avx2()) {
          std::vector<float> got2(n);
          kernels::avx2().thc_decode_lanes(
              reinterpret_cast<const std::uint8_t*>(wire.data()), n, lo,
              hi, q, b, workers, got2.data());
          ASSERT_EQ(
              std::memcmp(ref.data(), got2.data(), n * sizeof(float)), 0)
              << "avx2 q=" << q << " b=" << b;
        }
      }
    }
  }
}

TEST(Kernels, TopKThresholdSelectMatchesReferenceOnTies) {
  Rng rng(31);
  // Tie-heavy adversarial inputs: values drawn from a tiny set, so the
  // k-th magnitude has many duplicates and the lowest-index tie-break
  // rule decides the selection.
  const float palette[] = {0.0f, 1.0f, -1.0f, 2.0f, -2.0f, 0.5f};
  for (std::size_t d : {1u, 2u, 17u, 64u, 500u}) {
    std::vector<float> x(d);
    for (auto& v : x) v = palette[rng.next_u64() % 6];
    for (std::size_t k :
         {std::size_t{0}, std::size_t{1}, d / 2, d - 1, d, d + 3}) {
      EXPECT_EQ(top_k_indices(x, k), top_k_indices_reference(x, k))
          << "d=" << d << " k=" << k;
    }
  }
  // All-equal magnitudes: pure index tie-break.
  std::vector<float> flat(100, -3.0f);
  EXPECT_EQ(top_k_indices(flat, 10), top_k_indices_reference(flat, 10));
  // Mixed signs with equal magnitude.
  std::vector<float> pm(64);
  for (std::size_t i = 0; i < pm.size(); ++i) {
    pm[i] = (i % 2 != 0) ? 1.5f : -1.5f;
  }
  EXPECT_EQ(top_k_indices(pm, 7), top_k_indices_reference(pm, 7));
  // Radix-bucket collisions: distinct magnitudes sharing their top 16 bit
  // pattern (only low mantissa bits differ), so the histogram select must
  // rank within one crowded bucket to find the exact threshold.
  std::vector<float> crowded(256);
  for (std::size_t i = 0; i < crowded.size(); ++i) {
    const std::uint32_t bits =
        0x3FC00000u | static_cast<std::uint32_t>(rng.next_u64() & 0xFFFFu);
    crowded[i] = std::bit_cast<float>(bits) * ((i % 3 != 0) ? 1.0f : -1.0f);
  }
  for (std::size_t k : {std::size_t{1}, std::size_t{100}, std::size_t{255}}) {
    EXPECT_EQ(top_k_indices(crowded, k), top_k_indices_reference(crowded, k))
        << "crowded k=" << k;
  }
}

/// Drives one codec round stage by stage over the local reference
/// reductions, asserting at every stage that encode_range slices
/// concatenate to exactly the whole-payload encode.
void check_encode_range_concatenation(const std::string& spec,
                                      const ModelLayout& layout, int world,
                                      std::size_t* rangeable_stages) {
  auto codec = core::make_scheme_codec(spec, layout, world);
  const auto grads =
      core::seeded_worker_grads(layout.total_size(), world, 555, 1);
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  auto session = codec->begin_round(
      std::span<const std::span<const float>>(views), 1);
  core::WireStage stage;
  while (session->next_stage(stage)) {
    std::vector<ByteBuffer> payloads(static_cast<std::size_t>(world));
    for (int w = 0; w < world; ++w) {
      payloads[static_cast<std::size_t>(w)] = session->encode(w);
    }
    const std::size_t granularity =
        stage.op != nullptr ? stage.op->granularity() : 1;
    if (session->supports_encode_range()) {
      ++*rangeable_stages;
      for (int w = 0; w < world; ++w) {
        const ByteBuffer& ref = payloads[static_cast<std::size_t>(w)];
        ByteBuffer got(ref.size(), std::byte{0xEE});
        // Granularity-aligned splits of varying size, including runts.
        std::size_t pos = 0;
        std::size_t piece = granularity;
        while (pos < ref.size()) {
          const std::size_t len = std::min(ref.size() - pos, piece);
          session->encode_range(
              w, pos, std::span<std::byte>(got).subspan(pos, len));
          pos += len;
          piece = granularity * (1 + (piece / granularity) % 7);
        }
        ASSERT_EQ(got, ref) << spec << " stage " << stage.name
                            << " worker " << w;
      }
    }
    if (stage.route == core::AggregationPath::kAllGather) {
      session->absorb_gathered(payloads);
    } else {
      const auto chunks =
          comm::chunk_payload(payloads[0].size(), 4096, granularity);
      session->absorb_reduced(
          comm::local_chunked_ring_all_reduce(payloads, chunks, *stage.op));
    }
  }
  std::vector<float> out(layout.total_size());
  core::RoundStats stats;
  session->finish(out, stats);
}

TEST(Kernels, EncodeRangeConcatenationEqualsEncode) {
  const auto layout = make_transformer_like_layout(4096);
  std::size_t rangeable = 0;
  check_encode_range_concatenation("fp16", layout, 4, &rangeable);
  check_encode_range_concatenation("fp32", layout, 4, &rangeable);
  check_encode_range_concatenation("thc:q=4:b=4:sat:partial", layout, 4,
                                   &rangeable);
  check_encode_range_concatenation("topkc:b=8", layout, 4, &rangeable);
  // Dense fp32/fp16 (one stage each), THC levels, TopKC values must all
  // have taken the ranged path — the test is vacuous otherwise.
  EXPECT_GE(rangeable, 4u);
}

TEST(Kernels, EncodeRangeUnsupportedByDefaultThrows) {
  const auto layout = make_transformer_like_layout(4096);
  auto codec = core::make_scheme_codec("topk:b=8", layout, 2);
  const auto grads = core::seeded_worker_grads(layout.total_size(), 2, 1, 0);
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  auto session = codec->begin_round(
      std::span<const std::span<const float>>(views), 0);
  core::WireStage stage;
  ASSERT_TRUE(session->next_stage(stage));
  EXPECT_FALSE(session->supports_encode_range());
  ByteBuffer out(16);
  EXPECT_THROW(session->encode_range(0, 0, out), Error);
}

/// Runs `rounds` full aggregation rounds of one scheme from a fresh codec
/// under a forced kernel backend; returns outputs, EF residuals, and the
/// per-round payload/metadata byte counts (the wire fingerprint).
struct SchemeRun {
  std::vector<std::vector<float>> outputs;
  std::vector<std::vector<float>> ef;
  std::vector<std::size_t> payload_bytes, metadata_bytes;
};

SchemeRun run_scheme(const std::string& spec, const ModelLayout& layout,
                     int world, int rounds, const char* backend) {
  BackendGuard guard(backend);
  core::AggregationPipeline pipeline(
      core::make_scheme_codec(spec, layout, world),
      core::parse_pipeline_config(spec, layout, world));
  SchemeRun run;
  const std::size_t dim = layout.total_size();
  for (int r = 0; r < rounds; ++r) {
    const auto grads = core::seeded_worker_grads(
        dim, world, 777, static_cast<std::uint64_t>(r));
    std::vector<std::span<const float>> views;
    for (const auto& g : grads) views.emplace_back(g.data(), g.size());
    std::vector<float> out(dim);
    const core::RoundStats stats = pipeline.aggregate(
        std::span<const std::span<const float>>(views), out,
        static_cast<std::uint64_t>(r));
    run.outputs.push_back(std::move(out));
    run.payload_bytes.push_back(stats.payload_bytes);
    run.metadata_bytes.push_back(stats.metadata_bytes);
  }
  for (int w = 0; w < world; ++w) {
    const auto mem = pipeline.codec().ef_memory(w);
    run.ef.emplace_back(mem.begin(), mem.end());
  }
  return run;
}

TEST(Kernels, AllSchemesBitIdenticalAcrossBackends) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  const auto layout = make_transformer_like_layout(4096);
  for (const char* spec :
       {"fp16", "fp32", "topk:b=8", "topkc:b=8",
        "thc:q=4:b=4:sat:partial", "thc:q=4:b=8:full", "powersgd:r=1",
        "powersgd:r=2", "powersgd:r=4", "powersgd:r=8"}) {
    const SchemeRun s = run_scheme(spec, layout, 4, 3, "scalar");
    const SchemeRun a = run_scheme(spec, layout, 4, 3, "avx2");
    ASSERT_EQ(s.outputs.size(), a.outputs.size()) << spec;
    for (std::size_t r = 0; r < s.outputs.size(); ++r) {
      ASSERT_EQ(std::memcmp(s.outputs[r].data(), a.outputs[r].data(),
                            s.outputs[r].size() * sizeof(float)),
                0)
          << spec << " round " << r;
    }
    EXPECT_EQ(s.payload_bytes, a.payload_bytes) << spec;
    EXPECT_EQ(s.metadata_bytes, a.metadata_bytes) << spec;
    ASSERT_EQ(s.ef.size(), a.ef.size()) << spec;
    for (std::size_t w = 0; w < s.ef.size(); ++w) {
      ASSERT_EQ(s.ef[w].size(), a.ef[w].size()) << spec;
      // Schemes without EF hold no residual (and no buffer to compare).
      if (s.ef[w].empty()) continue;
      ASSERT_EQ(std::memcmp(s.ef[w].data(), a.ef[w].data(),
                            s.ef[w].size() * sizeof(float)),
                0)
          << spec << " EF worker " << w;
    }
  }
}

TEST(Kernels, RuntDimensionsBitIdenticalAcrossBackends) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  // Runt payloads exercise every scalar tail in the vectorized kernels.
  for (std::size_t d : {1u, 7u, 130u}) {
    const ModelLayout layout({{"l0", d, 1}});
    for (const char* spec : {"fp16", "thc:q=4:b=4:sat:partial"}) {
      const SchemeRun s = run_scheme(spec, layout, 2, 2, "scalar");
      const SchemeRun a = run_scheme(spec, layout, 2, 2, "avx2");
      for (std::size_t r = 0; r < s.outputs.size(); ++r) {
        ASSERT_EQ(std::memcmp(s.outputs[r].data(), a.outputs[r].data(),
                              s.outputs[r].size() * sizeof(float)),
                  0)
            << spec << " d=" << d << " round " << r;
      }
      EXPECT_EQ(s.payload_bytes, a.payload_bytes) << spec << " d=" << d;
    }
    if (d >= 2) {
      const ModelLayout layout2({{"l0", d, 1}});
      const SchemeRun s = run_scheme("topk:b=8", layout2, 2, 2, "scalar");
      const SchemeRun a = run_scheme("topk:b=8", layout2, 2, 2, "avx2");
      for (std::size_t r = 0; r < s.outputs.size(); ++r) {
        ASSERT_EQ(std::memcmp(s.outputs[r].data(), a.outputs[r].data(),
                              s.outputs[r].size() * sizeof(float)),
                  0)
            << "topk d=" << d;
      }
    }
  }
}

}  // namespace
}  // namespace gcs
