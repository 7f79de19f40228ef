#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

namespace sc::common {
namespace {

/// Definitional bit-at-a-time CRC-32C: the reference every accelerated
/// path (slicing-by-8, crc32-instruction chains, the pclmul hybrid) must
/// agree with. Deliberately shares no code or tables with the library.
std::uint32_t ReferenceCrc32c(const std::string& data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32cTest, KnownAnswerVector) {
  // The standard CRC-32C check value (iSCSI, RFC 3720 appendix).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, MatchesBitwiseReferenceAcrossSizes) {
  // Sizes straddle every internal regime: the byte/word tail, the
  // three-chain block (6 KB), the hybrid super-block (24 KB), and the
  // 512-bit fold (1 KB minimum, 256-byte stride), plus off-by-one edges
  // and unaligned tails around each.
  std::mt19937_64 rng(2024);
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{255}, std::size_t{1023},
        std::size_t{1024}, std::size_t{1025}, std::size_t{1279},
        std::size_t{1280}, std::size_t{2047},
        std::size_t{6143}, std::size_t{6144}, std::size_t{6145},
        std::size_t{24575}, std::size_t{24576}, std::size_t{24577},
        std::size_t{100000}}) {
    std::string data(size, '\0');
    for (char& ch : data) ch = static_cast<char>(rng());
    EXPECT_EQ(Crc32c(data.data(), data.size()), ReferenceCrc32c(data))
        << "size " << size;
  }
}

TEST(Crc32cTest, ChainingMatchesWholeBuffer) {
  std::mt19937_64 rng(7);
  std::string data(70000, '\0');
  for (char& ch : data) ch = static_cast<char>(rng());
  const std::uint32_t whole = Crc32c(data.data(), data.size());
  // Split at points that leave every path a differently-shaped tail.
  for (const std::size_t split :
       {std::size_t{1}, std::size_t{13}, std::size_t{6144},
        std::size_t{24576}, std::size_t{50001}}) {
    const std::uint32_t chained =
        Crc32c(data.data() + split, data.size() - split,
               Crc32c(data.data(), split));
    EXPECT_EQ(chained, whole) << "split " << split;
  }
}

TEST(Crc32cTest, RandomizedChunkingEquivalence) {
  std::mt19937_64 rng(99);
  std::string data(150000, '\0');
  for (char& ch : data) ch = static_cast<char>(rng());
  const std::uint32_t whole = Crc32c(data.data(), data.size());
  for (int trial = 0; trial < 8; ++trial) {
    std::uint32_t crc = 0;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t step =
          std::min<std::size_t>(data.size() - pos, rng() % 40000 + 1);
      crc = Crc32c(data.data() + pos, step, crc);
      pos += step;
    }
    EXPECT_EQ(crc, whole) << "trial " << trial;
  }
}

}  // namespace
}  // namespace sc::common
