#ifndef SC_COMMON_CRC32C_H_
#define SC_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace sc::common {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected), the checksum
/// the storage formats use for per-block and whole-file integrity.
/// Dispatches at runtime on x86-64: a 512-bit carry-less-multiply fold
/// (AVX-512 + VPCLMULQDQ) for buffers of 1 KB and up, else a hybrid
/// crc32 + pclmul kernel for 24 KB and up, else three-way-interleaved
/// SSE4.2 crc32 chains (tens of GB/s, so verified reads stay within a
/// few percent of unverified parsing — the CI overhead gate in
/// bench_service_throughput holds it to 5%), with a portable software
/// slicing-by-8 fallback.
///
/// `seed` is the value returned by a previous call, so checksums chain
/// across buffers: Crc32c(b, nb, Crc32c(a, na)) == Crc32c(a+b, na+nb).
/// A zero seed starts a fresh checksum.
std::uint32_t Crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0);

}  // namespace sc::common

#endif  // SC_COMMON_CRC32C_H_
