#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>  // crc32/pclmul intrinsics (guarded per-function)
#endif

namespace sc::common {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected 0x1EDC6F41

struct Tables {
  std::uint32_t t[8][256];
  Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (int slice = 1; slice < 8; ++slice) {
        crc = t[0][crc & 0xff] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
  }
};

const Tables& tables() {
  static const Tables instance;
  return instance;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SC_CRC32C_HW 1

// Hardware paths. The SSE4.2 crc32 instruction computes exactly this
// polynomial but is port-bound at 8 bytes/cycle even with enough
// independent chains to hide its latency; carry-less multiplication
// (pclmulqdq) folds 16-byte lanes on a different execution port, so
// running both at once roughly doubles throughput. Streams hashed
// independently are recombined by exploiting that the raw CRC register
// is linear over GF(2): appending B zero bytes is a fixed linear
// operator, precomputed as four 256-entry tables from its 32 basis
// images.

/// Zero-byte shift operator for one fixed block length.
struct ShiftTables {
  std::uint32_t t[4][256];
  explicit ShiftTables(std::size_t block) {
    const Tables& tb = tables();
    std::uint32_t basis[32];
    for (int bit = 0; bit < 32; ++bit) {
      std::uint32_t s = 1u << bit;
      for (std::size_t i = 0; i < block; ++i) {
        s = (s >> 8) ^ tb.t[0][s & 0xff];
      }
      basis[bit] = s;
    }
    for (int k = 0; k < 4; ++k) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t v = 0;
        for (int i = 0; i < 8; ++i) {
          if (b & (1u << i)) v ^= basis[8 * k + i];
        }
        t[k][b] = v;
      }
    }
  }
  std::uint32_t Shift(std::uint32_t crc) const {
    return t[0][crc & 0xff] ^ t[1][(crc >> 8) & 0xff] ^
           t[2][(crc >> 16) & 0xff] ^ t[3][crc >> 24];
  }
};

/// Block length for the plain three-chain crc32 path (three chains fully
/// hide the instruction's 3-cycle latency).
constexpr std::size_t kChainBlock = 2048;

const ShiftTables& chain_shift() {
  static const ShiftTables instance(kChainBlock);
  return instance;
}

std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

__m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Raw-register CRC using the crc32 instruction only. For state s and
/// block D: state(s, D) = state(0, D) ^ Z(s) where Z appends |D| zero
/// bytes, so three independently-hashed blocks fold as
/// Shift(Shift(a) ^ b) ^ c.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cChains(
    const unsigned char* p, std::size_t size, std::uint32_t crc) {
  const ShiftTables& st = chain_shift();
  while (size >= 3 * kChainBlock) {
    std::uint64_t a = crc;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    for (std::size_t i = 0; i < kChainBlock; i += 8) {
      a = _mm_crc32_u64(a, Load64(p + i));
      b = _mm_crc32_u64(b, Load64(p + kChainBlock + i));
      c = _mm_crc32_u64(c, Load64(p + 2 * kChainBlock + i));
    }
    crc = st.Shift(st.Shift(static_cast<std::uint32_t>(a)) ^
                   static_cast<std::uint32_t>(b)) ^
          static_cast<std::uint32_t>(c);
    p += 3 * kChainBlock;
    size -= 3 * kChainBlock;
  }
  while (size >= 8) {
    crc = static_cast<std::uint32_t>(_mm_crc32_u64(crc, Load64(p)));
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  return crc;
}

// Hybrid layout: each super-block is [Q0 | Q1 | Q2 | P] where the three
// Q streams (kHybridBlock bytes each) go through crc32 chains and P
// (3 * kHybridBlock bytes) through six interleaved pclmul fold lanes of
// 96-byte stride. Per unrolled iteration that is 12 crc32q (port-bound
// 12 cycles) against 12 pclmulqdq on another port — both sides process
// 96 bytes, so the super-block runs at roughly twice the crc32-only
// rate.
constexpr std::size_t kHybridBlock = 4096;
constexpr std::size_t kSuperBlock = 6 * kHybridBlock;

const ShiftTables& hybrid_shift() {
  static const ShiftTables instance(kHybridBlock);
  return instance;
}

std::uint32_t Reflect32(std::uint32_t v) {
  std::uint32_t r = 0;
  for (int i = 0; i < 32; ++i) {
    r = (r << 1) | ((v >> i) & 1);
  }
  return r;
}

/// x^n mod P(x) in the normal polynomial domain, returned bit-reflected
/// and shifted left one — the 33-bit operand shape pclmulqdq needs in
/// the reflected domain. Multiplying a bit-reflected 64-bit polynomial
/// by such a constant lands the product in the bit-reflected 128-bit
/// layout times an extra x^32, so fold exponents below are all 32 less
/// than the nominal shift (the classic x^(shift +/- 32) constant pair).
std::uint64_t FoldConstant(int n) {
  std::uint64_t r = 1;  // x^0
  for (int i = 0; i < n; ++i) {
    r <<= 1;
    if (r & (1ull << 32)) r ^= 0x11EDC6F41ull;
  }
  return static_cast<std::uint64_t>(Reflect32(static_cast<std::uint32_t>(r)))
         << 1;
}

struct FoldConstants {
  // Lane fold: X <- X * x^768 (96-byte stride). The register's low
  // qword holds the polynomial's high half (pairs with x^(768+64)), and
  // each constant drops 32 for the clmul alignment factor.
  std::uint64_t k832 = FoldConstant(768 + 64 - 32);
  std::uint64_t k768 = FoldConstant(768 - 32);
  // Lane combine: X <- X * x^128 (16-byte shift).
  std::uint64_t k192 = FoldConstant(128 + 64 - 32);
  std::uint64_t k128 = FoldConstant(128 - 32);
  // Wide path: X <- X * x^2048 (256-byte stride) and X <- X * x^512
  // (64-byte accumulator combine).
  std::uint64_t k2112 = FoldConstant(2048 + 64 - 32);
  std::uint64_t k2048 = FoldConstant(2048 - 32);
  std::uint64_t k576 = FoldConstant(512 + 64 - 32);
  std::uint64_t k512 = FoldConstant(512 - 32);
};

const FoldConstants& fold_constants() {
  static const FoldConstants instance;
  return instance;
}

/// Reduces a 128-bit fold remainder to the raw CRC register by running
/// its 16 bytes through the crc32 instruction from a zero state: the
/// result equals the register of the whole folded region processed
/// alone.
__attribute__((target("sse4.2"))) std::uint32_t ReduceRemainder(__m128i x) {
  alignas(16) std::uint64_t xw[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(xw), x);
  return static_cast<std::uint32_t>(
      _mm_crc32_u64(_mm_crc32_u64(0, xw[0]), xw[1]));
}

/// One fold step: X * x^n + data, for the constant pair of shift n.
__attribute__((target("pclmul"))) __m128i Fold128(__m128i x, __m128i k,
                                                  __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       data);
}

__attribute__((target("sse4.2,pclmul"))) std::uint32_t Crc32cHybrid(
    const unsigned char* p, std::size_t size, std::uint32_t crc) {
  const ShiftTables& st = hybrid_shift();
  const FoldConstants& fc = fold_constants();
  const __m128i kfold = _mm_set_epi64x(
      static_cast<long long>(fc.k768), static_cast<long long>(fc.k832));
  const __m128i kcomb = _mm_set_epi64x(
      static_cast<long long>(fc.k128), static_cast<long long>(fc.k192));
  while (size >= kSuperBlock) {
    const unsigned char* q0p = p;
    const unsigned char* q1p = p + kHybridBlock;
    const unsigned char* q2p = p + 2 * kHybridBlock;
    const unsigned char* pp = p + 3 * kHybridBlock;
    std::uint64_t q0 = crc;
    std::uint64_t q1 = 0;
    std::uint64_t q2 = 0;
    __m128i x0 = _mm_setzero_si128();
    __m128i x1 = _mm_setzero_si128();
    __m128i x2 = _mm_setzero_si128();
    __m128i x3 = _mm_setzero_si128();
    __m128i x4 = _mm_setzero_si128();
    __m128i x5 = _mm_setzero_si128();
    for (std::size_t i = 0; i < kHybridBlock; i += 32) {
      // Three crc32 chains, 32 bytes each.
      q0 = _mm_crc32_u64(q0, Load64(q0p + i));
      q1 = _mm_crc32_u64(q1, Load64(q1p + i));
      q2 = _mm_crc32_u64(q2, Load64(q2p + i));
      q0 = _mm_crc32_u64(q0, Load64(q0p + i + 8));
      q1 = _mm_crc32_u64(q1, Load64(q1p + i + 8));
      q2 = _mm_crc32_u64(q2, Load64(q2p + i + 8));
      q0 = _mm_crc32_u64(q0, Load64(q0p + i + 16));
      q1 = _mm_crc32_u64(q1, Load64(q1p + i + 16));
      q2 = _mm_crc32_u64(q2, Load64(q2p + i + 16));
      q0 = _mm_crc32_u64(q0, Load64(q0p + i + 24));
      q1 = _mm_crc32_u64(q1, Load64(q1p + i + 24));
      q2 = _mm_crc32_u64(q2, Load64(q2p + i + 24));
      // Six pclmul fold lanes, 16 bytes each (96-byte stride per lane).
      const unsigned char* chunk = pp + 3 * i;
      x0 = Fold128(x0, kfold, Load128(chunk));
      x1 = Fold128(x1, kfold, Load128(chunk + 16));
      x2 = Fold128(x2, kfold, Load128(chunk + 32));
      x3 = Fold128(x3, kfold, Load128(chunk + 48));
      x4 = Fold128(x4, kfold, Load128(chunk + 64));
      x5 = Fold128(x5, kfold, Load128(chunk + 80));
    }
    // Combine the six lanes: P == sum_j X_j * x^(128 * (5 - j)) mod P.
    __m128i x = x0;
    const __m128i lanes[5] = {x1, x2, x3, x4, x5};
    for (const __m128i& lane : lanes) x = Fold128(x, kcomb, lane);
    const std::uint32_t t = ReduceRemainder(x);
    // Stitch the four regions: total = Z3B(ZB(ZB(q0) ^ q1) ^ q2) ^ t.
    std::uint32_t s =
        st.Shift(static_cast<std::uint32_t>(q0)) ^
        static_cast<std::uint32_t>(q1);
    s = st.Shift(s) ^ static_cast<std::uint32_t>(q2);
    s = st.Shift(st.Shift(st.Shift(s))) ^ t;
    crc = s;
    p += kSuperBlock;
    size -= kSuperBlock;
  }
  return Crc32cChains(p, size, crc);
}

// Wide path (AVX-512 + VPCLMULQDQ): four 512-bit accumulators, each
// four 128-bit fold lanes that one vpclmulqdq advances together, so a
// 256-byte iteration costs eight carry-less multiplies — over twice the
// hybrid path's rate on cache-resident data. The accumulators and then
// their lanes are combined as in the hybrid path.
constexpr std::size_t kWideStride = 256;
constexpr std::size_t kWideMin = 4 * kWideStride;

__attribute__((target("avx512f,vpclmulqdq"))) __m512i Fold512(__m512i x,
                                                              __m512i k,
                                                              __m512i data) {
  // 0x96: three-way XOR.
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11),
                                   data, 0x96);
}

/// Requires size >= kWideStride. For the raw register, processing D
/// from state s equals processing D with s XORed into its first four
/// bytes from state zero, so the incoming register joins the first
/// load.
__attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.2")))
std::uint32_t Crc32cWide(const unsigned char* p, std::size_t size,
                         std::uint32_t crc) {
  const FoldConstants& fc = fold_constants();
  const auto ll = [](std::uint64_t k) { return static_cast<long long>(k); };
  const __m512i kstride =
      _mm512_set_epi64(ll(fc.k2048), ll(fc.k2112), ll(fc.k2048),
                       ll(fc.k2112), ll(fc.k2048), ll(fc.k2112),
                       ll(fc.k2048), ll(fc.k2112));
  const __m512i kblock =
      _mm512_set_epi64(ll(fc.k512), ll(fc.k576), ll(fc.k512), ll(fc.k576),
                       ll(fc.k512), ll(fc.k576), ll(fc.k512), ll(fc.k576));
  const __m128i kcomb = _mm_set_epi64x(static_cast<long long>(fc.k128),
                                       static_cast<long long>(fc.k192));
  __m512i x0 = _mm512_xor_si512(
      _mm512_loadu_si512(p),
      _mm512_inserti32x4(_mm512_setzero_si512(),
                         _mm_cvtsi32_si128(static_cast<int>(crc)), 0));
  __m512i x1 = _mm512_loadu_si512(p + 64);
  __m512i x2 = _mm512_loadu_si512(p + 128);
  __m512i x3 = _mm512_loadu_si512(p + 192);
  p += kWideStride;
  size -= kWideStride;
  while (size >= kWideStride) {
    x0 = Fold512(x0, kstride, _mm512_loadu_si512(p));
    x1 = Fold512(x1, kstride, _mm512_loadu_si512(p + 64));
    x2 = Fold512(x2, kstride, _mm512_loadu_si512(p + 128));
    x3 = Fold512(x3, kstride, _mm512_loadu_si512(p + 192));
    p += kWideStride;
    size -= kWideStride;
  }
  x1 = Fold512(x0, kblock, x1);
  x2 = Fold512(x1, kblock, x2);
  x3 = Fold512(x2, kblock, x3);
  alignas(64) __m128i lanes[4];
  _mm512_store_si512(lanes, x3);
  __m128i x = lanes[0];
  for (int i = 1; i < 4; ++i) x = Fold128(x, kcomb, lanes[i]);
  return Crc32cChains(p, size, ReduceRemainder(x));
}

bool HasVpclmul() {
  static const bool has = __builtin_cpu_supports("sse4.2") &&
                          __builtin_cpu_supports("pclmul") &&
                          __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("vpclmulqdq");
  return has;
}

bool HasSse42() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}

bool HasPclmul() {
  static const bool has =
      __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul");
  return has;
}
#endif  // x86-64 hardware path

}  // namespace

std::uint32_t Crc32c(const void* data, std::size_t size,
                     std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
#if defined(SC_CRC32C_HW)
  if (size >= kWideMin && HasVpclmul()) return ~Crc32cWide(p, size, crc);
  if (size >= kSuperBlock && HasPclmul()) return ~Crc32cHybrid(p, size, crc);
  if (HasSse42()) return ~Crc32cChains(p, size, crc);
#endif
  const Tables& tb = tables();
  // Slicing-by-8: fold one aligned 8-byte word per iteration.
  while (size >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    word ^= crc;  // little-endian host (the formats are host-order too)
    crc = tb.t[7][word & 0xff] ^ tb.t[6][(word >> 8) & 0xff] ^
          tb.t[5][(word >> 16) & 0xff] ^ tb.t[4][(word >> 24) & 0xff] ^
          tb.t[3][(word >> 32) & 0xff] ^ tb.t[2][(word >> 40) & 0xff] ^
          tb.t[1][(word >> 48) & 0xff] ^ tb.t[0][word >> 56];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = tb.t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace sc::common
