#include "hashing/simd_kernels.hpp"

#include <atomic>
#include <cstdlib>

#include "hashing/field.hpp"
#include "util/check.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace detcol {
namespace {

// ---------------------------------------------------------------------------
// Scalar kernels — the reference semantics. Every vector kernel below is a
// lane-parallel transcription of exactly these loops.
// ---------------------------------------------------------------------------

void scalar_mul_add_rows(std::uint64_t* vals, const std::uint64_t* const* rows,
                         const std::uint64_t* deltas, unsigned num_rows,
                         std::size_t begin, std::size_t end) {
  if (num_rows == 1) {
    const std::uint64_t d0 = deltas[0];
    const std::uint64_t* row = rows[0];
    for (std::size_t i = begin; i < end; ++i) {
      vals[i] = m61_add(vals[i], m61_mul(d0, row[i]));
    }
    return;
  }
  for (std::size_t i = begin; i < end; ++i) {
    std::uint64_t acc = vals[i];
    for (unsigned k = 0; k < num_rows; ++k) {
      acc = m61_add(acc, m61_mul(deltas[k], rows[k][i]));
    }
    vals[i] = acc;
  }
}

void scalar_mul_rows(std::uint64_t* out, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t begin,
                     std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) out[i] = m61_mul(a[i], b[i]);
}

void scalar_reduce_row(std::uint64_t* out, const std::uint64_t* in,
                       std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) out[i] = m61_reduce(in[i]);
}

void scalar_to_bins(std::uint32_t* out, const std::uint64_t* vals,
                    std::uint64_t range, std::uint32_t offset,
                    std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    out[i] = static_cast<std::uint32_t>(m61_to_range(vals[i], range)) + offset;
  }
}

void scalar_fma_const(std::uint64_t* acc, const std::uint64_t* x,
                      std::uint64_t coeff, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    acc[i] = m61_add(m61_mul(acc[i], x[i]), coeff);
  }
}

constexpr FieldKernel kScalarKernel = {
    "scalar",        scalar_mul_add_rows, scalar_mul_rows,
    scalar_reduce_row, scalar_to_bins,    scalar_fma_const,
};

// ---------------------------------------------------------------------------
// AVX2 kernels: 4 points per instruction.
//
// The bit-identity argument. The scalar m61_mul computes, for a, b < 2^61:
//   P  = a * b                  (exact, < 2^122)
//   lo = P mod 2^61,  hi = P >> 61   (hi < 2^61)
//   s  = lo + hi                (< 2^62, no u64 overflow)
//   s2 = (s & M) + (s >> 61);  result = s2 - M if s2 >= M else s2
// AVX2 has no 64x64->128 multiply, so each lane rebuilds the same P from
// 32-bit limbs via _mm256_mul_epu32 (unsigned 32x32->64). With
// a = 2^32*a1 + a0 (a1 < 2^29 since a < 2^61) and likewise b:
//   m0 = a0*b0 (< 2^64, exact)   m1 = a0*b1 + a1*b0 (< 2^62)   m2 = a1*b1
//   P  = m0 + 2^32*m1 + 2^64*m2
// Regrouping at bit 61 (all in-lane values < 2^63, so nothing overflows):
//   L = (m0 & M) + ((m1 mod 2^29) << 32)                (P = L + 2^61*H)
//   H = (m0 >> 61) + (m1 >> 29) + (m2 << 3)
// hence lo = L & M and hi = H + (L >> 61) *as exact u64 values*, so
//   s = (L & M) + H + (L >> 61)
// is the very same integer the scalar computes, and the shared fold +
// conditional subtract lands on the identical canonical residue. The signed
// _mm256_cmpgt_epi64 is safe because every compared value is < 2^63.
// ---------------------------------------------------------------------------
#if defined(__x86_64__) || defined(__i386__)

__attribute__((target("avx2"))) inline __m256i avx2_mersenne() {
  return _mm256_set1_epi64x(static_cast<long long>(kMersenne61));
}

// Conditional subtract: canonicalize s in [0, 2*p) to [0, p).
__attribute__((target("avx2"))) inline __m256i avx2_m61_canon(__m256i s) {
  const __m256i m = avx2_mersenne();
  const __m256i ge =
      _mm256_cmpgt_epi64(s, _mm256_sub_epi64(m, _mm256_set1_epi64x(1)));
  return _mm256_sub_epi64(s, _mm256_and_si256(ge, m));
}

// m61_add for canonical lanes a, b < p.
__attribute__((target("avx2"))) inline __m256i avx2_m61_add(__m256i a,
                                                            __m256i b) {
  return avx2_m61_canon(_mm256_add_epi64(a, b));
}

// m61_reduce for arbitrary 64-bit lanes.
__attribute__((target("avx2"))) inline __m256i avx2_m61_reduce(__m256i x) {
  const __m256i m = avx2_mersenne();
  return avx2_m61_canon(_mm256_add_epi64(_mm256_and_si256(x, m),
                                         _mm256_srli_epi64(x, 61)));
}

// m61_mul for lanes a, b < 2^61 (see the derivation above).
__attribute__((target("avx2"))) inline __m256i avx2_m61_mul(__m256i a,
                                                            __m256i b) {
  const __m256i m = avx2_mersenne();
  const __m256i mask29 = _mm256_set1_epi64x((1LL << 29) - 1);
  const __m256i a1 = _mm256_srli_epi64(a, 32);
  const __m256i b1 = _mm256_srli_epi64(b, 32);
  // _mm256_mul_epu32 reads only the low 32 bits of each lane, so a and b
  // serve directly as a0 and b0.
  const __m256i m0 = _mm256_mul_epu32(a, b);
  const __m256i m1 =
      _mm256_add_epi64(_mm256_mul_epu32(a, b1), _mm256_mul_epu32(a1, b));
  const __m256i m2 = _mm256_mul_epu32(a1, b1);
  const __m256i low =
      _mm256_add_epi64(_mm256_and_si256(m0, m),
                       _mm256_slli_epi64(_mm256_and_si256(m1, mask29), 32));
  const __m256i high = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_srli_epi64(m0, 61), _mm256_srli_epi64(m1, 29)),
      _mm256_slli_epi64(m2, 3));
  const __m256i s = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_and_si256(low, m), high),
      _mm256_srli_epi64(low, 61));
  return avx2_m61_canon(_mm256_add_epi64(_mm256_and_si256(s, m),
                                         _mm256_srli_epi64(s, 61)));
}

__attribute__((target("avx2"))) void avx2_mul_add_rows(
    std::uint64_t* vals, const std::uint64_t* const* rows,
    const std::uint64_t* deltas, unsigned num_rows, std::size_t begin,
    std::size_t end) {
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    __m256i acc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    for (unsigned k = 0; k < num_rows; ++k) {
      const __m256i d =
          _mm256_set1_epi64x(static_cast<long long>(deltas[k]));
      const __m256i row =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[k] + i));
      acc = avx2_m61_add(acc, avx2_m61_mul(d, row));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + i), acc);
  }
  scalar_mul_add_rows(vals, rows, deltas, num_rows, i, end);
}

__attribute__((target("avx2"))) void avx2_mul_rows(std::uint64_t* out,
                                                   const std::uint64_t* a,
                                                   const std::uint64_t* b,
                                                   std::size_t begin,
                                                   std::size_t end) {
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        avx2_m61_mul(va, vb));
  }
  scalar_mul_rows(out, a, b, i, end);
}

__attribute__((target("avx2"))) void avx2_reduce_row(std::uint64_t* out,
                                                     const std::uint64_t* in,
                                                     std::size_t begin,
                                                     std::size_t end) {
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        avx2_m61_reduce(x));
  }
  scalar_reduce_row(out, in, i, end);
}

// Range mapping, vector path for range < 2^32. With u < 2^61 split as
// 2^32*u1 + u0 (u1 < 2^29) and r = range: p0 = u0*r (< 2^64, exact) and
// p1 = u1*r (< 2^61), so u*r = p0 + 2^32*p1 and
//   (u*r) >> 61 = ((p0 >> 32) + p1) >> 29
// exactly (the discarded low 32 bits of p0 cannot carry into bit 61). The
// result is < range < 2^32, so the lane's low 32 bits hold it all and the
// +offset wraps mod 2^32 just like the scalar u32 addition.
__attribute__((target("avx2"))) void avx2_to_bins(
    std::uint32_t* out, const std::uint64_t* vals, std::uint64_t range,
    std::uint32_t offset, std::size_t begin, std::size_t end) {
  if (range >> 32 != 0) {  // u1*r would overflow a lane; all kernels agree
    scalar_to_bins(out, vals, range, offset, begin, end);
    return;
  }
  const __m256i r = _mm256_set1_epi64x(static_cast<long long>(range));
  const __m256i pick_low32 = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m128i off = _mm_set1_epi32(static_cast<int>(offset));
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256i u =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    const __m256i p0 = _mm256_mul_epu32(u, r);
    const __m256i p1 = _mm256_mul_epu32(_mm256_srli_epi64(u, 32), r);
    const __m256i t = _mm256_add_epi64(_mm256_srli_epi64(p0, 32), p1);
    const __m256i bin = _mm256_srli_epi64(t, 29);
    const __m128i packed = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(bin, pick_low32));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_add_epi32(packed, off));
  }
  scalar_to_bins(out, vals, range, offset, i, end);
}

__attribute__((target("avx2"))) void avx2_fma_const(std::uint64_t* acc,
                                                    const std::uint64_t* x,
                                                    std::uint64_t coeff,
                                                    std::size_t begin,
                                                    std::size_t end) {
  const __m256i c = _mm256_set1_epi64x(static_cast<long long>(coeff));
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        avx2_m61_add(avx2_m61_mul(va, vx), c));
  }
  scalar_fma_const(acc, x, coeff, i, end);
}

constexpr FieldKernel kAvx2Kernel = {
    "avx2",          avx2_mul_add_rows, avx2_mul_rows,
    avx2_reduce_row, avx2_to_bins,      avx2_fma_const,
};

#endif  // x86

// ---------------------------------------------------------------------------
// NEON kernels: 2 points per instruction. Same limb algebra as AVX2 —
// vmull_u32 is the 32x32->64 multiply, vmovn_u64 / vshrn_n_u64 split a lane
// into its 32-bit limbs, and vcgeq_u64 gives an unsigned compare directly.
// ---------------------------------------------------------------------------
#if defined(__aarch64__)

inline uint64x2_t neon_m61_canon(uint64x2_t s) {
  const uint64x2_t m = vdupq_n_u64(kMersenne61);
  const uint64x2_t ge = vcgeq_u64(s, m);
  return vsubq_u64(s, vandq_u64(ge, m));
}

inline uint64x2_t neon_m61_add(uint64x2_t a, uint64x2_t b) {
  return neon_m61_canon(vaddq_u64(a, b));
}

inline uint64x2_t neon_m61_reduce(uint64x2_t x) {
  const uint64x2_t m = vdupq_n_u64(kMersenne61);
  return neon_m61_canon(vaddq_u64(vandq_u64(x, m), vshrq_n_u64(x, 61)));
}

inline uint64x2_t neon_m61_mul(uint64x2_t a, uint64x2_t b) {
  const uint64x2_t m = vdupq_n_u64(kMersenne61);
  const uint64x2_t mask29 = vdupq_n_u64((std::uint64_t{1} << 29) - 1);
  const uint32x2_t a0 = vmovn_u64(a);
  const uint32x2_t a1 = vshrn_n_u64(a, 32);
  const uint32x2_t b0 = vmovn_u64(b);
  const uint32x2_t b1 = vshrn_n_u64(b, 32);
  const uint64x2_t m0 = vmull_u32(a0, b0);
  const uint64x2_t m1 = vmlal_u32(vmull_u32(a0, b1), a1, b0);
  const uint64x2_t m2 = vmull_u32(a1, b1);
  const uint64x2_t low =
      vaddq_u64(vandq_u64(m0, m), vshlq_n_u64(vandq_u64(m1, mask29), 32));
  const uint64x2_t high = vaddq_u64(
      vaddq_u64(vshrq_n_u64(m0, 61), vshrq_n_u64(m1, 29)), vshlq_n_u64(m2, 3));
  const uint64x2_t s =
      vaddq_u64(vaddq_u64(vandq_u64(low, m), high), vshrq_n_u64(low, 61));
  return neon_m61_canon(vaddq_u64(vandq_u64(s, m), vshrq_n_u64(s, 61)));
}

void neon_mul_add_rows(std::uint64_t* vals, const std::uint64_t* const* rows,
                       const std::uint64_t* deltas, unsigned num_rows,
                       std::size_t begin, std::size_t end) {
  std::size_t i = begin;
  for (; i + 2 <= end; i += 2) {
    uint64x2_t acc = vld1q_u64(vals + i);
    for (unsigned k = 0; k < num_rows; ++k) {
      const uint64x2_t d = vdupq_n_u64(deltas[k]);
      acc = neon_m61_add(acc, neon_m61_mul(d, vld1q_u64(rows[k] + i)));
    }
    vst1q_u64(vals + i, acc);
  }
  scalar_mul_add_rows(vals, rows, deltas, num_rows, i, end);
}

void neon_mul_rows(std::uint64_t* out, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t begin, std::size_t end) {
  std::size_t i = begin;
  for (; i + 2 <= end; i += 2) {
    vst1q_u64(out + i, neon_m61_mul(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  scalar_mul_rows(out, a, b, i, end);
}

void neon_reduce_row(std::uint64_t* out, const std::uint64_t* in,
                     std::size_t begin, std::size_t end) {
  std::size_t i = begin;
  for (; i + 2 <= end; i += 2) {
    vst1q_u64(out + i, neon_m61_reduce(vld1q_u64(in + i)));
  }
  scalar_reduce_row(out, in, i, end);
}

void neon_to_bins(std::uint32_t* out, const std::uint64_t* vals,
                  std::uint64_t range, std::uint32_t offset, std::size_t begin,
                  std::size_t end) {
  if (range >> 32 != 0) {
    scalar_to_bins(out, vals, range, offset, begin, end);
    return;
  }
  const uint32x2_t r = vdup_n_u32(static_cast<std::uint32_t>(range));
  const uint32x2_t off = vdup_n_u32(offset);
  std::size_t i = begin;
  for (; i + 2 <= end; i += 2) {
    const uint64x2_t u = vld1q_u64(vals + i);
    const uint64x2_t p0 = vmull_u32(vmovn_u64(u), r);
    const uint64x2_t p1 = vmull_u32(vshrn_n_u64(u, 32), r);
    const uint64x2_t t = vaddq_u64(vshrq_n_u64(p0, 32), p1);
    const uint32x2_t bin = vmovn_u64(vshrq_n_u64(t, 29));
    vst1_u32(out + i, vadd_u32(bin, off));
  }
  scalar_to_bins(out, vals, range, offset, i, end);
}

void neon_fma_const(std::uint64_t* acc, const std::uint64_t* x,
                    std::uint64_t coeff, std::size_t begin, std::size_t end) {
  const uint64x2_t c = vdupq_n_u64(coeff);
  std::size_t i = begin;
  for (; i + 2 <= end; i += 2) {
    vst1q_u64(acc + i,
              neon_m61_add(neon_m61_mul(vld1q_u64(acc + i), vld1q_u64(x + i)),
                           c));
  }
  scalar_fma_const(acc, x, coeff, i, end);
}

constexpr FieldKernel kNeonKernel = {
    "neon",          neon_mul_add_rows, neon_mul_rows,
    neon_reduce_row, neon_to_bins,      neon_fma_const,
};

#endif  // aarch64

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

const FieldKernel* kernel_for(SimdKind kind) {
  switch (kind) {
    case SimdKind::kScalar:
      return &kScalarKernel;
    case SimdKind::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return &kAvx2Kernel;
#else
      break;
#endif
    case SimdKind::kNeon:
#if defined(__aarch64__)
      return &kNeonKernel;
#else
      break;
#endif
  }
  DC_CHECK(false, "simd kernel not compiled into this build");
  return &kScalarKernel;  // unreachable
}

std::atomic<const FieldKernel*> g_active{nullptr};

// First-use default: $DETCOL_SIMD if set (the CLI validates it up front and
// exits 2 on a bad value; in pure library use a bad value is a CheckError),
// else the best kernel the host supports.
const FieldKernel* boot_kernel() {
  const char* env = std::getenv("DETCOL_SIMD");
  if (env != nullptr && *env != '\0') {
    SimdKind kind = SimdKind::kScalar;
    std::string error;
    DC_CHECK(parse_simd_spec(env, &kind, &error), "DETCOL_SIMD: ", error);
    return kernel_for(kind);
  }
  return kernel_for(simd_auto_kind());
}

}  // namespace

bool simd_available(SimdKind kind) {
  switch (kind) {
    case SimdKind::kScalar:
      return true;
    case SimdKind::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdKind::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

SimdKind simd_auto_kind() {
  if (simd_available(SimdKind::kAvx2)) return SimdKind::kAvx2;
  if (simd_available(SimdKind::kNeon)) return SimdKind::kNeon;
  return SimdKind::kScalar;
}

const char* simd_kind_name(SimdKind kind) {
  switch (kind) {
    case SimdKind::kAvx2:
      return "avx2";
    case SimdKind::kNeon:
      return "neon";
    case SimdKind::kScalar:
      break;
  }
  return "scalar";
}

bool parse_simd_spec(const std::string& spec, SimdKind* kind,
                     std::string* error) {
  if (spec == "auto") {
    *kind = simd_auto_kind();
    return true;
  }
  SimdKind want;
  if (spec == "scalar") {
    want = SimdKind::kScalar;
  } else if (spec == "avx2") {
    want = SimdKind::kAvx2;
  } else if (spec == "neon") {
    want = SimdKind::kNeon;
  } else {
    if (error != nullptr) {
      *error = "invalid simd kernel '" + spec +
               "' (expected auto, scalar, avx2 or neon)";
    }
    return false;
  }
  if (!simd_available(want)) {
    if (error != nullptr) {
      *error = "simd kernel '" + spec +
               "' is not available on this host/build (available: " +
               simd_kind_name(simd_auto_kind()) + ", scalar)";
    }
    return false;
  }
  *kind = want;
  return true;
}

const FieldKernel& active_field_kernel() {
  const FieldKernel* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Concurrent first uses all compute the same pointer, so the racing
    // stores agree; the atomic only serves publication.
    k = boot_kernel();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

const char* active_simd_name() { return active_field_kernel().name; }

bool select_simd(const std::string& spec, std::string* error) {
  SimdKind kind = SimdKind::kScalar;
  if (!parse_simd_spec(spec, &kind, error)) return false;
  g_active.store(kernel_for(kind), std::memory_order_release);
  return true;
}

}  // namespace detcol
