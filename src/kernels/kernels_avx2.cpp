// AVX2 + F16C backend.
//
// This TU is compiled with -mavx2 -mf16c -ffp-contract=off (see
// CMakeLists.txt); nothing else in the library may assume those ISA
// extensions, and the dispatcher only hands this table out after CPUID
// confirms them. Bit-identity with the scalar reference is maintained by:
//   - using vdivps (not reciprocal estimates) and vroundps, which match
//     scalar '/' and std::floor exactly;
//   - never letting mul+add contract to FMA (-ffp-contract=off; FMA
//     intrinsics are not used);
//   - F16C conversions, which implement the same RNE semantics as
//     numeric/half for all finite values — groups containing an Inf/NaN
//     take a scalar fallback because VCVTPH2PS quietens signaling NaNs
//     where half_bits_to_float preserves them bit-for-bit;
//   - FWHT butterflies built from true vaddps/vsubps pairs (blend-merged),
//     not sign-flip tricks that would change NaN sign propagation.
#include "kernels/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "numeric/half.h"
#include "numeric/precision.h"

namespace gcs::kernels {
namespace {

constexpr float kInvSqrt2 = 0.70710678118654752440f;

/// All-ones in the lanes whose float has the all-ones exponent (Inf or
/// NaN).
inline __m256i inf_nan_lanes(__m256 v) {
  const __m256i exp = _mm256_set1_epi32(0x7F800000);
  return _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_castps_si256(v), exp),
                            exp);
}

inline bool any_lane(__m256i v) { return _mm256_testz_si256(v, v) == 0; }

/// True when any of the 8 floats is an Inf or NaN.
inline bool any_inf_nan(__m256 v) { return any_lane(inf_nan_lanes(v)); }

void fp32_to_fp16_avx2(const float* x, std::size_t n, std::uint16_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    if (any_inf_nan(v)) {
      // half_bits_to_float's NaN payload rule is replicated in software.
      for (std::size_t j = i; j < i + 8; ++j) {
        out[j] = float_to_half_bits(x[j]);
      }
      continue;
    }
    const __m128i h =
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), h);
  }
  for (; i < n; ++i) out[i] = float_to_half_bits(x[i]);
}

/// True when any of the 8 halves has the all-ones exponent (Inf or NaN).
inline bool any_half_inf_nan(__m128i h) {
  const __m128i exp = _mm_and_si128(h, _mm_set1_epi16(0x7C00));
  const __m128i hit = _mm_cmpeq_epi16(exp, _mm_set1_epi16(0x7C00));
  return _mm_testz_si128(hit, hit) == 0;
}

void fp16_to_fp32_avx2(const std::uint16_t* x, std::size_t n, float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    if (any_half_inf_nan(h)) {
      // VCVTPH2PS quietens signaling NaNs; the reference preserves them.
      for (std::size_t j = i; j < i + 8; ++j) {
        out[j] = half_bits_to_float(x[j]);
      }
      continue;
    }
    _mm256_storeu_ps(out + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) out[i] = half_bits_to_float(x[i]);
}

void gather_fp32_to_fp16_avx2(const float* x, const std::uint32_t* idx,
                              std::size_t n, std::uint16_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i iv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m256 v = _mm256_i32gather_ps(x, iv, 4);
    if (any_inf_nan(v)) {
      for (std::size_t j = i; j < i + 8; ++j) {
        out[j] = float_to_half_bits(x[idx[j]]);
      }
      continue;
    }
    const __m128i h =
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), h);
  }
  for (; i < n; ++i) out[i] = float_to_half_bits(x[idx[i]]);
}

/// Scalar butterfly over [begin, end), identical expression to the scalar
/// backend (and thus identical bits: (a+b)*c has no contractible form).
inline void fwht_level_tail(float* x, std::size_t begin, std::size_t end,
                            std::size_t h) {
  for (std::size_t base = begin; base < end; base += 2 * h) {
    for (std::size_t i = base; i < base + h; ++i) {
      const float a = x[i];
      const float b = x[i + h];
      x[i] = (a + b) * kInvSqrt2;
      x[i + h] = (a - b) * kInvSqrt2;
    }
  }
}

void fwht_level_avx2(float* x, std::size_t n, std::size_t h) {
  const __m256 c = _mm256_set1_ps(kInvSqrt2);
  if (h >= 8) {
    for (std::size_t base = 0; base < n; base += 2 * h) {
      for (std::size_t i = base; i < base + h; i += 8) {
        const __m256 a = _mm256_loadu_ps(x + i);
        const __m256 b = _mm256_loadu_ps(x + i + h);
        _mm256_storeu_ps(x + i,
                         _mm256_mul_ps(_mm256_add_ps(a, b), c));
        _mm256_storeu_ps(x + i + h,
                         _mm256_mul_ps(_mm256_sub_ps(a, b), c));
      }
    }
    return;
  }
  // h in {1, 2, 4}: whole butterfly groups fit inside one 8-lane vector.
  // Build p = "a" lanes, q = "b" lanes, then blend add/sub results into
  // place. True vaddps/vsubps keep NaN propagation identical to scalar.
  const std::size_t vec_n = n & ~std::size_t{7};
  for (std::size_t i = 0; i < vec_n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    __m256 p, q;
    int blend_mask;
    if (h == 1) {
      p = _mm256_moveldup_ps(v);  // [x0 x0 x2 x2 | x4 x4 x6 x6]
      q = _mm256_movehdup_ps(v);  // [x1 x1 x3 x3 | x5 x5 x7 x7]
      blend_mask = 0xAA;          // odd lanes take (a - b)
    } else if (h == 2) {
      p = _mm256_shuffle_ps(v, v, _MM_SHUFFLE(1, 0, 1, 0));
      q = _mm256_shuffle_ps(v, v, _MM_SHUFFLE(3, 2, 3, 2));
      blend_mask = 0xCC;          // lanes 2,3 (and 6,7) take (a - b)
    } else {
      p = _mm256_permute2f128_ps(v, v, 0x00);  // [low | low]
      q = _mm256_permute2f128_ps(v, v, 0x11);  // [high | high]
      blend_mask = 0xF0;          // upper half takes (a - b)
    }
    const __m256 s = _mm256_add_ps(p, q);
    const __m256 d = _mm256_sub_ps(p, q);
    __m256 r;
    switch (blend_mask) {
      case 0xAA: r = _mm256_blend_ps(s, d, 0xAA); break;
      case 0xCC: r = _mm256_blend_ps(s, d, 0xCC); break;
      default: r = _mm256_blend_ps(s, d, 0xF0); break;
    }
    _mm256_storeu_ps(x + i, _mm256_mul_ps(r, c));
  }
  fwht_level_tail(x, vec_n, n, h);
}

void mul_avx2(const float* x, const float* s, std::size_t n, float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(s + i)));
  }
  for (; i < n; ++i) out[i] = x[i] * s[i];
}

void mul_inplace_avx2(float* x, const float* s, std::size_t n) {
  mul_avx2(x, s, n, x);
}

void add_avx2(const float* a, const float* b, std::size_t n, float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

/// Sequential min/max fold, identical to the scalar backend.
void min_max_tail(const float* x, std::size_t n, float* lo, float* hi) {
  float mn = x[0], mx = x[0];
  for (std::size_t i = 1; i < n; ++i) {
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
  *lo = mn;
  *hi = mx;
}

void min_max_avx2(const float* x, std::size_t n, float* lo, float* hi) {
  if (n < 16) {
    min_max_tail(x, n, lo, hi);
    return;
  }
  // Lanewise blendv on v < acc / v > acc is exactly std::min/std::max per
  // comparison, and min/max folds are order-independent for ordered,
  // sign-normal values — but a NaN lane would stick and hide later values
  // in that lane where the sequential fold would have kept them, and a
  // -0.0 makes the fold order observable (std::min(+0,-0) keeps the first
  // argument seen). Detect either and redo the whole call scalar; both are
  // vanishingly rare in gradient data and the fast path must not change
  // their result.
  const __m256i neg_zero = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  __m256 vmn = _mm256_loadu_ps(x);
  __m256 vmx = vmn;
  __m256 bad = _mm256_or_ps(
      _mm256_cmp_ps(vmn, vmn, _CMP_UNORD_Q),
      _mm256_castsi256_ps(
          _mm256_cmpeq_epi32(_mm256_castps_si256(vmn), neg_zero)));
  std::size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    bad = _mm256_or_ps(bad, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    bad = _mm256_or_ps(
        bad, _mm256_castsi256_ps(
                 _mm256_cmpeq_epi32(_mm256_castps_si256(v), neg_zero)));
    vmn = _mm256_blendv_ps(vmn, v, _mm256_cmp_ps(v, vmn, _CMP_LT_OQ));
    vmx = _mm256_blendv_ps(vmx, v, _mm256_cmp_ps(v, vmx, _CMP_GT_OQ));
  }
  if (_mm256_movemask_ps(bad) != 0) {
    min_max_tail(x, n, lo, hi);
    return;
  }
  alignas(32) float mns[8], mxs[8];
  _mm256_store_ps(mns, vmn);
  _mm256_store_ps(mxs, vmx);
  float mn = mns[0], mx = mxs[0];
  for (int j = 1; j < 8; ++j) {
    mn = std::min(mn, mns[j]);
    mx = std::max(mx, mxs[j]);
  }
  for (; i < n; ++i) {
    std::uint32_t b;
    std::memcpy(&b, x + i, sizeof(b));
    if (x[i] != x[i] || b == 0x80000000u) {  // NaN/-0 tail: full-scalar redo
      min_max_tail(x, n, lo, hi);
      return;
    }
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
  *lo = mn;
  *hi = mx;
}

/// Scalar remainder of the fused THC encode; same expressions as the
/// scalar backend (gcs::stochastic_level is the shared reference).
void thc_encode_lanes_tail(const float* x, const float* u, std::size_t n,
                           float lo, float hi, unsigned q, unsigned b,
                           std::uint8_t* out) {
  const std::uint32_t add = (1u << (b - 1)) - (1u << (q - 1));
  std::uint32_t acc = 0;
  unsigned acc_bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t raw = stochastic_level(x[i], lo, hi, q, u[i]) + add;
    acc |= raw << acc_bits;
    acc_bits += b;
    while (acc_bits >= 8) {
      *out++ = static_cast<std::uint8_t>(acc & 0xFFu);
      acc >>= 8;
      acc_bits -= 8;
    }
  }
}

void thc_encode_lanes_avx2(const float* x, const float* u, std::size_t n,
                           float lo, float hi, unsigned q, unsigned b,
                           std::uint8_t* out) {
  if (!(hi > lo) || !(b == 2 || b == 4 || b == 8)) {
    // Degenerate range (every level is 0) or a lane width the packer
    // below does not handle: the scalar path covers both exactly.
    thc_encode_lanes_tail(x, u, n, lo, hi, q, b, out);
    return;
  }
  const float levels_f = static_cast<float>((1u << q) - 1u);
  const std::int32_t add = static_cast<std::int32_t>(
      (1u << (b - 1)) - (1u << (q - 1)));
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vwidth = _mm256_set1_ps(hi - lo);
  const __m256 vlevels = _mm256_set1_ps(levels_f);
  const __m256 vzero = _mm256_setzero_ps();
  const __m256 vone = _mm256_set1_ps(1.0f);
  const __m256i vadd = _mm256_set1_epi32(add);
  std::size_t i = 0;
  alignas(32) std::int32_t tmp[8];
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 uu = _mm256_loadu_ps(u + i);
    // t = (v - lo) / (hi - lo) * levels, the exact scalar op order.
    const __m256 t = _mm256_mul_ps(
        _mm256_div_ps(_mm256_sub_ps(v, vlo), vwidth), vlevels);
    const __m256 fl = _mm256_floor_ps(t);
    const __m256 frac = _mm256_sub_ps(t, fl);
    const __m256 up =
        _mm256_and_ps(_mm256_cmp_ps(uu, frac, _CMP_LT_OQ), vone);
    __m256 level = _mm256_add_ps(fl, up);
    level = _mm256_blendv_ps(level, vzero,
                             _mm256_cmp_ps(t, vzero, _CMP_LE_OQ));
    level = _mm256_blendv_ps(level, vlevels,
                             _mm256_cmp_ps(t, vlevels, _CMP_GE_OQ));
    const __m256i raw =
        _mm256_add_epi32(_mm256_cvttps_epi32(level), vadd);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), raw);
    std::uint64_t word = 0;
    for (int j = 0; j < 8; ++j) {
      word |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(tmp[j]))
              << (static_cast<unsigned>(j) * b);
    }
    std::memcpy(out, &word, b);  // 8 lanes make exactly b bytes
    out += b;
  }
  thc_encode_lanes_tail(x + i, u + i, n - i, lo, hi, q, b, out);
}

/// Scalar remainder of the fused THC decode (same bits as the scalar
/// backend: hoisted delta/lo_n are the identical float computations).
void thc_decode_lanes_tail(const std::uint8_t* in, std::size_t n, float lo,
                           float hi, unsigned q, unsigned b,
                           unsigned n_workers, float* out) {
  const float levels = static_cast<float>((1u << q) - 1u);
  const float width = hi - lo;
  const float lo_n = lo * static_cast<float>(n_workers);
  if (levels == 0.0f || width <= 0.0f) {
    for (std::size_t i = 0; i < n; ++i) out[i] = lo_n;
    return;
  }
  const float delta = width / levels;
  const std::int32_t base = static_cast<std::int32_t>(n_workers) *
                                (1 << (q - 1)) -
                            (1 << (b - 1));
  const std::uint32_t mask = (1u << b) - 1u;
  std::uint32_t acc = 0;
  unsigned acc_bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (acc_bits < b) {
      acc |= static_cast<std::uint32_t>(*in++) << acc_bits;
      acc_bits += 8;
    }
    const std::int32_t level_sum = static_cast<std::int32_t>(acc & mask) + base;
    acc >>= b;
    acc_bits -= b;
    out[i] = lo_n + delta * static_cast<float>(level_sum);
  }
}

void thc_decode_lanes_avx2(const std::uint8_t* in, std::size_t n, float lo,
                           float hi, unsigned q, unsigned b,
                           unsigned n_workers, float* out) {
  const float levels = static_cast<float>((1u << q) - 1u);
  const float width = hi - lo;
  if (levels == 0.0f || width <= 0.0f || !(b == 2 || b == 4 || b == 8)) {
    thc_decode_lanes_tail(in, n, lo, hi, q, b, n_workers, out);
    return;
  }
  const float delta = width / levels;
  const float lo_n = lo * static_cast<float>(n_workers);
  const std::int32_t base = static_cast<std::int32_t>(n_workers) *
                                (1 << (q - 1)) -
                            (1 << (b - 1));
  const __m256 vdelta = _mm256_set1_ps(delta);
  const __m256 vlo_n = _mm256_set1_ps(lo_n);
  const __m256i vbase = _mm256_set1_epi32(base);
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>((1u << b) - 1u));
  const __m256i shifts = _mm256_setr_epi32(
      0, static_cast<int>(b), static_cast<int>(2 * b),
      static_cast<int>(3 * b), static_cast<int>(4 * b),
      static_cast<int>(5 * b), static_cast<int>(6 * b),
      static_cast<int>(7 * b));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i raw;
    if (b == 8) {
      raw = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(in)));
      in += 8;
    } else {
      // 8 lanes span b bytes; all shifts stay below 32 for b <= 4.
      std::uint32_t word = 0;
      std::memcpy(&word, in, b);
      raw = _mm256_and_si256(
          _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(word)),
                            shifts),
          vmask);
      in += b;
    }
    const __m256 f =
        _mm256_cvtepi32_ps(_mm256_add_epi32(raw, vbase));
    _mm256_storeu_ps(out + i,
                     _mm256_add_ps(vlo_n, _mm256_mul_ps(vdelta, f)));
  }
  thc_decode_lanes_tail(in, n - i, lo, hi, q, b, n_workers, out + i);
}

void abs_avx2(const float* x, std::size_t n, float* out) {
  const __m256 mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_and_ps(_mm256_loadu_ps(x + i), mask));
  }
  for (; i < n; ++i) out[i] = std::fabs(x[i]);
}

std::size_t count_gt_avx2(const float* x, std::size_t n, float t) {
  const __m256 vt = _mm256_set1_ps(t);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int m = _mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(x + i), vt, _CMP_GT_OQ));
    count += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(m)));
  }
  for (; i < n; ++i) count += x[i] > t ? 1 : 0;
  return count;
}

std::size_t collect_ge_avx2(const float* x, std::size_t n, float t,
                            std::uint32_t* out) {
  const __m256 vt = _mm256_set1_ps(t);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    unsigned m = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(x + i), vt, _CMP_GE_OQ)));
    while (m != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctz(m));
      out[count++] = static_cast<std::uint32_t>(i + bit);
      m &= m - 1;
    }
  }
  for (; i < n; ++i) {
    if (x[i] >= t) out[count++] = static_cast<std::uint32_t>(i);
  }
  return count;
}

void fp16_sum_avx2(std::uint16_t* acc, const std::uint16_t* in,
                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    if (any_half_inf_nan(a) || any_half_inf_nan(b)) {
      // VCVTPH2PS quietens signaling NaNs, and which NaN operand an add
      // propagates is up to the compiler: the reference decides both.
      scalar().fp16_sum(acc + i, in + i, 8);
      continue;
    }
    // Finite halves widen exactly, their FP32 sum cannot be NaN, and
    // VCVTPS2PH rounds it (overflow to Inf included) as numeric/half does.
    const __m256 sum = _mm256_add_ps(_mm256_cvtph_ps(a), _mm256_cvtph_ps(b));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(acc + i),
        _mm256_cvtps_ph(sum, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }
  scalar().fp16_sum(acc + i, in + i, n - i);
}

/// Saturating packed-lane add over whole 32-byte vectors for one lane
/// width; returns the byte count it covered (the caller finishes the tail)
/// and adds its clip count to *clips.
template <unsigned kBits>
std::size_t sat_add_packed_vectors(std::uint8_t* acc, const std::uint8_t* in,
                                   std::size_t nbytes, std::size_t* clips) {
  // Clip events tally per byte lane (at most 8/kBits <= 4 per vector), and
  // fold into 64-bit sums every 63 vectors, before a byte lane can wrap.
  constexpr unsigned kFoldEvery = 63;
  const __m256i zero = _mm256_setzero_si256();
  __m256i tally = zero;
  __m256i sums = zero;
  unsigned pending = 0;
  std::size_t i = 0;
  for (; i + 32 <= nbytes; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    __m256i out;
    if constexpr (kBits == 8) {
      // Flipping the top bit turns offset-binary into two's complement,
      // where vpaddsb is Sat itself; it clipped where it differs from the
      // wrapping add.
      const __m256i flip = _mm256_set1_epi8(static_cast<char>(0x80));
      const __m256i sa = _mm256_xor_si256(a, flip);
      const __m256i sb = _mm256_xor_si256(b, flip);
      const __m256i sat = _mm256_adds_epi8(sa, sb);
      const __m256i exact = _mm256_cmpeq_epi8(sat, _mm256_add_epi8(sa, sb));
      tally = _mm256_sub_epi8(
          tally, _mm256_xor_si256(exact, _mm256_cmpeq_epi8(zero, zero)));
      out = _mm256_xor_si256(sat, flip);
    } else {
      // Per field: ra + rb <= 2^{b+1} - 2 fits a byte; the offset-binary
      // Sat is that sum minus 2^{b-1}, clamped to [0, 2^b - 1].
      const __m256i mask = _mm256_set1_epi8((1 << kBits) - 1);
      const __m256i half = _mm256_set1_epi8(1 << (kBits - 1));
      const __m256i high = _mm256_set1_epi8(3 * (1 << (kBits - 1)) - 1);
      out = zero;
      for (unsigned shift = 0; shift < 8; shift += kBits) {
        const __m128i count = _mm_cvtsi32_si128(static_cast<int>(shift));
        const __m256i sum = _mm256_add_epi8(
            _mm256_and_si256(_mm256_srl_epi16(a, count), mask),
            _mm256_and_si256(_mm256_srl_epi16(b, count), mask));
        const __m256i lane =
            _mm256_min_epu8(_mm256_subs_epu8(sum, half), mask);
        tally = _mm256_sub_epi8(
            tally, _mm256_or_si256(_mm256_cmpgt_epi8(half, sum),
                                   _mm256_cmpgt_epi8(sum, high)));
        // lane < 2^kBits and shift + kBits <= 8: stays inside its byte.
        out = _mm256_or_si256(out, _mm256_sll_epi16(lane, count));
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), out);
    if (++pending == kFoldEvery) {
      sums = _mm256_add_epi64(sums, _mm256_sad_epu8(tally, zero));
      tally = zero;
      pending = 0;
    }
  }
  sums = _mm256_add_epi64(sums, _mm256_sad_epu8(tally, zero));
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), sums);
  *clips += static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  return i;
}

std::size_t sat_add_packed_avx2(std::uint8_t* acc, const std::uint8_t* in,
                                std::size_t nbytes, unsigned bits) {
  std::size_t clips = 0;
  std::size_t done = 0;
  switch (bits) {
    case 2: done = sat_add_packed_vectors<2>(acc, in, nbytes, &clips); break;
    case 4: done = sat_add_packed_vectors<4>(acc, in, nbytes, &clips); break;
    case 8: done = sat_add_packed_vectors<8>(acc, in, nbytes, &clips); break;
    default: break;
  }
  return clips + scalar().sat_add_packed(acc + done, in + done,
                                         nbytes - done, bits);
}

// ---- PowerSGD's low-rank products ----
//
// Each lane owns one output c[i, j] and adds that output's terms in the
// reference's ascending-p order, one vmulps then one vaddps per term; the
// vectors run across a free output dimension (rows of C for matmul and
// matmul_at, columns for matmul_bt), never across the p-sum. The
// reference's `if (a == 0) continue` becomes a per-lane compare and blend:
// a lane whose A factor is +-0 keeps its accumulator untouched, so a
// 0 * Inf or 0 * NaN term never reaches it. Leftover rows or columns take
// the reference loops.
//
// With finite inputs every NaN an output can reach is the one default NaN
// (from Inf - Inf after an overflow), so the compiler's free choice of
// operand order for a commutative add or mul cannot change a byte. Inputs
// holding an Inf or NaN may carry distinct NaN payloads that would meet in
// one sum, so rows, or whole calls, that see one are recomputed by the
// scalar reference itself.

/// acc + a * b in every lane where `skip` is clear, acc where it is set.
inline __m256 mac_unless(__m256 acc, __m256 a, __m256 b, __m256 skip) {
  return _mm256_blendv_ps(_mm256_add_ps(acc, _mm256_mul_ps(a, b)), acc,
                          skip);
}

/// All-ones in the lanes holding +-0 (the reference's `a == 0.0f`; false
/// for NaN).
inline __m256 zero_lanes(__m256 a) {
  return _mm256_cmp_ps(a, _mm256_setzero_ps(), _CMP_EQ_OQ);
}

/// True when x[0..n) holds an Inf or NaN.
bool has_inf_nan(const float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if (any_inf_nan(_mm256_loadu_ps(x + i))) return true;
  }
  for (; i < n; ++i) {
    if (!std::isfinite(x[i])) return true;
  }
  return false;
}

/// Transposes the 8x8 block r[0..8) in place (bit moves only).
inline void transpose8x8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/// Writes lane t of acc[j] to c[t * ldc + j] for t < 8, j < NJ.
template <std::size_t NJ>
inline void store_lanes(const __m256 (&acc)[NJ], float* c, std::size_t ldc) {
  alignas(32) float lanes[NJ][8];
#pragma GCC unroll 8
  for (std::size_t j = 0; j < NJ; ++j) _mm256_store_ps(lanes[j], acc[j]);
  for (std::size_t t = 0; t < 8; ++t) {
    for (std::size_t j = 0; j < NJ; ++j) c[t * ldc + j] = lanes[j][t];
  }
}

/// Up to 8 output columns per pass, each held in one accumulator register.
constexpr std::size_t kMaxGroup = 8;

/// C = A B over rows [i, i + 8) and columns [j0, j0 + NJ): lane t is row
/// i + t, fed from 8x8 transposes of A's rows. Returns true when those A
/// rows hold an Inf or NaN.
template <std::size_t NJ>
bool matmul_rows(const float* a, const float* b, std::size_t k, std::size_t n,
                 std::size_t i, std::size_t j0, float* c) {
  __m256 acc[NJ];
  for (auto& v : acc) v = _mm256_setzero_ps();
  __m256i bad = _mm256_setzero_si256();
  const float* ab = a + i * k;
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    __m256 col[8];
#pragma GCC unroll 8
    for (std::size_t t = 0; t < 8; ++t) {
      col[t] = _mm256_loadu_ps(ab + t * k + p);
      bad = _mm256_or_si256(bad, inf_nan_lanes(col[t]));
    }
    transpose8x8(col);  // lane t = a[row t, p + u]
#pragma GCC unroll 8
    for (std::size_t u = 0; u < 8; ++u) {
      const __m256 skip = zero_lanes(col[u]);
      const float* brow = b + (p + u) * n + j0;
#pragma GCC unroll 8
      for (std::size_t j = 0; j < NJ; ++j) {
        acc[j] = mac_unless(acc[j], col[u], _mm256_broadcast_ss(brow + j),
                            skip);
      }
    }
  }
  for (; p < k; ++p) {
    const float* x = ab + p;
    const __m256 av = _mm256_setr_ps(x[0], x[k], x[2 * k], x[3 * k], x[4 * k],
                                     x[5 * k], x[6 * k], x[7 * k]);
    bad = _mm256_or_si256(bad, inf_nan_lanes(av));
    const __m256 skip = zero_lanes(av);
    const float* brow = b + p * n + j0;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < NJ; ++j) {
      acc[j] = mac_unless(acc[j], av, _mm256_broadcast_ss(brow + j), skip);
    }
  }
  store_lanes<NJ>(acc, c + i * n + j0, n);
  return any_lane(bad);
}

/// C = A B over rows [0, m8), m8 a multiple of 8, and columns
/// [j0, j0 + NJ). Row blocks that meet an Inf or NaN are redone by the
/// reference (a row of C depends only on its own row of A).
template <std::size_t NJ>
void matmul_columns(const float* a, const float* b, std::size_t m8,
                    std::size_t k, std::size_t n, std::size_t j0, float* c) {
  for (std::size_t i = 0; i < m8; i += 8) {
    if (matmul_rows<NJ>(a, b, k, n, i, j0, c)) {
      scalar().matmul(a + i * k, b, 8, k, n, c + i * n);
    }
  }
}

/// matmul_at's 8-lane blocks interleaved per pass: two independent
/// accumulator chains hide the add + blend latency while 2 * NJ
/// accumulators fit the registers (about 12% at r = 4 on the bench shapes;
/// matmul's transposes leave it no such gain).
template <std::size_t NJ>
constexpr std::size_t kBlocks = NJ <= 4 ? 2 : 1;

/// C = A^T B over C rows [i, i + 8 * NB) (A columns, contiguous in each A
/// row) and columns [j0, j0 + NJ). Returns true when those A columns hold
/// an Inf or NaN.
template <std::size_t NJ, std::size_t NB>
bool matmul_at_rows(const float* a, const float* b, std::size_t m,
                    std::size_t k, std::size_t n, std::size_t i,
                    std::size_t j0, float* c) {
  __m256 acc[NB][NJ];
  for (auto& blk : acc) {
    for (auto& v : blk) v = _mm256_setzero_ps();
  }
  __m256i bad = _mm256_setzero_si256();
  for (std::size_t p = 0; p < k; ++p) {
    __m256 av[NB], skip[NB];
    for (std::size_t blk = 0; blk < NB; ++blk) {
      av[blk] = _mm256_loadu_ps(a + p * m + i + 8 * blk);
      bad = _mm256_or_si256(bad, inf_nan_lanes(av[blk]));
      skip[blk] = zero_lanes(av[blk]);
    }
    const float* brow = b + p * n + j0;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < NJ; ++j) {
      const __m256 bj = _mm256_broadcast_ss(brow + j);
      for (std::size_t blk = 0; blk < NB; ++blk) {
        acc[blk][j] = mac_unless(acc[blk][j], av[blk], bj, skip[blk]);
      }
    }
  }
  for (std::size_t blk = 0; blk < NB; ++blk) {
    store_lanes<NJ>(acc[blk], c + (i + 8 * blk) * n + j0, n);
  }
  return any_lane(bad);
}

/// C = A^T B over C rows [0, m8) and columns [j0, j0 + NJ); true when A
/// met an Inf or NaN there.
template <std::size_t NJ>
bool matmul_at_columns(const float* a, const float* b, std::size_t m,
                       std::size_t m8, std::size_t k, std::size_t n,
                       std::size_t j0, float* c) {
  constexpr std::size_t kRows = 8 * kBlocks<NJ>;
  bool bad = false;
  std::size_t i = 0;
  for (; i + kRows <= m8; i += kRows) {
    bad |= matmul_at_rows<NJ, kBlocks<NJ>>(a, b, m, k, n, i, j0, c);
  }
  for (; i < m8; i += 8) {
    bad |= matmul_at_rows<NJ, 1>(a, b, m, k, n, i, j0, c);
  }
  return bad;
}

template <std::size_t... J>
constexpr auto matmul_groups(std::index_sequence<J...>) {
  return std::array{&matmul_columns<J + 1>...};
}
template <std::size_t... J>
constexpr auto matmul_at_groups(std::index_sequence<J...>) {
  return std::array{&matmul_at_columns<J + 1>...};
}

void matmul_avx2(const float* a, const float* b, std::size_t m,
                 std::size_t k, std::size_t n, float* c) {
  static constexpr auto kGroups =
      matmul_groups(std::make_index_sequence<kMaxGroup>{});
  if (has_inf_nan(b, k * n)) {
    scalar().matmul(a, b, m, k, n, c);
    return;
  }
  const std::size_t m8 = m - m % 8;
  for (std::size_t j0 = 0; j0 < n; j0 += kMaxGroup) {
    kGroups[std::min(kMaxGroup, n - j0) - 1](a, b, m8, k, n, j0, c);
  }
  scalar().matmul(a + m8 * k, b, m - m8, k, n, c + m8 * n);
}

void matmul_at_avx2(const float* a, const float* b, std::size_t m,
                    std::size_t k, std::size_t n, float* c) {
  static constexpr auto kGroups =
      matmul_at_groups(std::make_index_sequence<kMaxGroup>{});
  bool bad = has_inf_nan(b, k * n);
  const std::size_t m8 = m - m % 8;
  for (std::size_t j0 = 0; j0 < n && !bad; j0 += kMaxGroup) {
    bad = kGroups[std::min(kMaxGroup, n - j0) - 1](a, b, m, m8, k, n, j0, c);
  }
  // Leftover C rows [m8, m): the reference's p-i-j loop on that slice.
  std::fill(c + m8 * n, c + m * n, 0.0f);
  for (std::size_t p = 0; p < k && !bad; ++p) {
    for (std::size_t i = m8; i < m; ++i) {
      const float api = a[p * m + i];
      bad |= !std::isfinite(api);
      if (api == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) c[i * n + j] += api * b[p * n + j];
    }
  }
  // The slices of A share the p-loop, so a non-finite input anywhere hands
  // the whole product to the reference.
  if (bad) scalar().matmul_at(a, b, m, k, n, c);
}

/// matmul_bt's B^T panel: up to 8 p-rows of kPanelCols columns, so a row
/// of C is written in contiguous vectors.
constexpr std::size_t kPanelCols = 128;

void matmul_bt_avx2(const float* a, const float* b, std::size_t m,
                    std::size_t k, std::size_t n, float* c) {
  if (k == 0 || has_inf_nan(a, m * k) || has_inf_nan(b, n * k)) {
    scalar().matmul_bt(a, b, m, k, n, c);
    return;
  }
  const std::size_t n8 = n - n % 8;
  alignas(32) float panel[8 * kPanelCols];
  for (std::size_t j0 = 0; j0 < n8; j0 += kPanelCols) {
    const std::size_t w = std::min(kPanelCols, n8 - j0);
    // Passes over 8 p at a time; between passes the partial sums rest in C
    // as floats, exactly as the reference keeps them.
    for (std::size_t p0 = 0; p0 < k; p0 += 8) {
      const std::size_t np = std::min<std::size_t>(8, k - p0);
      for (std::size_t jj = 0; jj < w; ++jj) {
        for (std::size_t u = 0; u < np; ++u) {
          panel[u * kPanelCols + jj] = b[(j0 + jj) * k + p0 + u];
        }
      }
      for (std::size_t i = 0; i < m; ++i) {
        const float* arow = a + i * k + p0;
        float* crow = c + i * n + j0;
        for (std::size_t jj = 0; jj < w; jj += 8) {
          __m256 acc =
              p0 == 0 ? _mm256_setzero_ps() : _mm256_loadu_ps(crow + jj);
          for (std::size_t u = 0; u < np; ++u) {
            // One A factor feeds every lane, so the per-lane skip is
            // uniform here and a branch is that blend.
            if (arow[u] == 0.0f) continue;
            acc = _mm256_add_ps(
                acc,
                _mm256_mul_ps(_mm256_broadcast_ss(arow + u),
                              _mm256_load_ps(panel + u * kPanelCols + jj)));
          }
          _mm256_storeu_ps(crow + jj, acc);
        }
      }
    }
  }
  // Leftover C columns [n8, n): the reference's loop on that slice.
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    std::fill(crow + n8, crow + n, 0.0f);
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = a[i * k + p];
      if (aip == 0.0f) continue;
      for (std::size_t j = n8; j < n; ++j) crow[j] += aip * b[j * k + p];
    }
  }
}

constexpr Backend kAvx2 = {
    "avx2",
    fp32_to_fp16_avx2,
    fp16_to_fp32_avx2,
    gather_fp32_to_fp16_avx2,
    fwht_level_avx2,
    mul_avx2,
    mul_inplace_avx2,
    add_avx2,
    min_max_avx2,
    thc_encode_lanes_avx2,
    thc_decode_lanes_avx2,
    abs_avx2,
    count_gt_avx2,
    collect_ge_avx2,
    fp16_sum_avx2,
    sat_add_packed_avx2,
    matmul_avx2,
    matmul_at_avx2,
    matmul_bt_avx2,
};

}  // namespace

const Backend& avx2() noexcept { return kAvx2; }

}  // namespace gcs::kernels

#else  // non-x86: the dispatcher never selects avx2(), but the symbol must
       // exist; alias the scalar reference.

namespace gcs::kernels {
const Backend& avx2() noexcept { return scalar(); }
}  // namespace gcs::kernels

#endif
