// Vectorized kernels for the three hot field passes of the batched
// seed-evaluation engines, behind a runtime-dispatched function-pointer
// table.
//
// Every pipeline's innermost loop — the method-of-conditional-expectations
// seed search (Lemma 2.4 polynomial hashing, Section 2.3 range mapping) —
// bottoms out in element-wise multiply-adds over F_{2^61 - 1} on the
// contiguous power tables of BatchKWiseEval. Those passes are embarrassingly
// data-parallel per element, so they vectorize 4 (AVX2) or 2 (NEON) points
// per instruction with the exact same per-element arithmetic as the scalar
// code in hashing/field.hpp.
//
// The determinism contract (the reason forcing any kernel is safe):
//
//  * Bit-identical per element. Each vector lane performs the identical
//    sequence of modular reductions as the scalar m61_* helpers — the limb
//    decomposition below reconstructs the exact (lo, hi) split of the
//    128-bit product, so every intermediate 64-bit value matches the scalar
//    path bit for bit (see simd_kernels.cpp for the algebra).
//  * Index-order tails. A kernel processes full vector blocks from `begin`
//    upward and finishes the remainder with the scalar loop in index order.
//    Elements are independent, so lane width never reorders observable
//    arithmetic.
//  * Shard boundaries unchanged. Kernels run *inside* the static shards of
//    exec/exec.hpp ([begin, end) slices of a base pointer); dispatch changes
//    how a shard's elements are computed, never how work is split or folded.
//
// Dispatch is selected once at startup: the best ISA the host supports
// (cpuid on x86, unconditional NEON on aarch64), overridable with
// `--simd=auto|scalar|avx2|neon` / $DETCOL_SIMD (see select_simd). The
// active table is captured by BatchKWiseEval at construction, so a running
// engine never observes a mid-search switch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace detcol {

enum class SimdKind { kScalar, kAvx2, kNeon };

/// One dispatch table of element-wise field kernels. All functions operate
/// on the half-open index range [begin, end) of their base pointers, so
/// callers can hand a kernel one static shard of a larger array. All inputs
/// except reduce_row must already be canonical residues in [0, p).
struct FieldKernel {
  /// Display name: "scalar", "avx2", "neon".
  const char* name;

  /// The coefficient-diff multiply-add of BatchKWiseEval::load:
  ///   vals[i] += deltas[k] * rows[k][i]  (mod p)  for k in [0, num_rows),
  /// accumulated in k order per element (one vals load/store per element).
  void (*mul_add_rows)(std::uint64_t* vals, const std::uint64_t* const* rows,
                       const std::uint64_t* deltas, unsigned num_rows,
                       std::size_t begin, std::size_t end);

  /// Power-table row step: out[i] = a[i] * b[i] (mod p).
  void (*mul_rows)(std::uint64_t* out, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t begin, std::size_t end);

  /// Canonicalize arbitrary 64-bit words: out[i] = m61_reduce(in[i]).
  void (*reduce_row)(std::uint64_t* out, const std::uint64_t* in,
                     std::size_t begin, std::size_t end);

  /// The batched Section 2.3 range mapping:
  ///   out[i] = uint32(m61_to_range(vals[i], range)) + offset.
  /// `range` >= 1; ranges >= 2^32 take the scalar path in every kernel.
  void (*to_bins)(std::uint32_t* out, const std::uint64_t* vals,
                  std::uint64_t range, std::uint32_t offset, std::size_t begin,
                  std::size_t end);

  /// One Horner step over a point vector: acc[i] = acc[i] * x[i] + coeff
  /// (mod p) — the bulk KWiseHash::field_eval path.
  void (*fma_const)(std::uint64_t* acc, const std::uint64_t* x,
                    std::uint64_t coeff, std::size_t begin, std::size_t end);
};

/// Whether this build + host can run the given kernel. kScalar is always
/// true; kAvx2 needs an x86 build and the AVX2 cpuid bit; kNeon needs an
/// aarch64 build (NEON is baseline there).
bool simd_available(SimdKind kind);

/// The best available kind for this host (what "auto" resolves to).
SimdKind simd_auto_kind();

/// Display name of a kind ("scalar", "avx2", "neon").
const char* simd_kind_name(SimdKind kind);

/// The currently selected kernel table. Before any select_simd call this is
/// $DETCOL_SIMD if set (a malformed or unavailable value raises CheckError),
/// else the auto-detected best — i.e. selection happens once at first use.
const FieldKernel& active_field_kernel();

/// Parse a kernel spec: "auto" (the best available), "scalar", "avx2",
/// "neon". Returns false when the spec is malformed or names an ISA this
/// host cannot run; *error (if non-null) then holds a one-line diagnostic.
bool parse_simd_spec(const std::string& spec, SimdKind* kind,
                     std::string* error);

/// Name of the active kernel — the "kernel" field of stats/suite JSON.
/// Host-dependent, so it is excluded from cross-host bit-compares exactly
/// like "timing" (in-process invariance suites run under one fixed kernel).
const char* active_simd_name();

/// Select the active kernel from a parse_simd_spec string. Returns false
/// without changing the selection when the spec does not parse; *error then
/// holds the diagnostic (the CLI maps it to usage exit 2).
bool select_simd(const std::string& spec, std::string* error);

}  // namespace detcol
