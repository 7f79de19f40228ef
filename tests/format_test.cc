#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <sstream>

#include "storage/format.h"

namespace sc::storage {
namespace {

using engine::Column;
using engine::DataType;
using engine::Field;
using engine::Schema;
using engine::Table;

Table SampleTable() {
  std::vector<Column> cols;
  cols.push_back(Column::FromInts({1, -5, 1LL << 40}));
  cols.push_back(Column::FromDoubles({0.25, -1e9, 3.14159}));
  cols.push_back(Column::FromStrings({"", "hello", "utf8 ✓"}));
  return Table(Schema({Field{"i", DataType::kInt64},
                       Field{"d", DataType::kFloat64},
                       Field{"s", DataType::kString}}),
               std::move(cols));
}

std::string Serialize(const Table& t) {
  std::stringstream buffer;
  WriteTableCompressed(t, buffer);
  return buffer.str();
}

Table Deserialize(const std::string& data, const ReadOptions& options = {}) {
  std::stringstream in(data);
  return ReadTableCompressed(in, options);
}

TEST(FormatTest, StreamRoundTrip) {
  const Table original = SampleTable();
  std::stringstream buffer;
  const std::int64_t written = WriteTableCompressed(original, buffer);
  EXPECT_EQ(written, static_cast<std::int64_t>(buffer.str().size()));
  const Table loaded = ReadTableCompressed(buffer);
  EXPECT_TRUE(loaded == original);
}

TEST(FormatTest, EmptyTableRoundTrip) {
  const Table empty = Table::Empty(
      Schema({Field{"a", DataType::kInt64}, Field{"b", DataType::kString},
              Field{"c", DataType::kFloat64}}));
  const Table loaded = Deserialize(Serialize(empty));
  EXPECT_EQ(loaded.num_rows(), 0u);
  EXPECT_TRUE(loaded.schema() == empty.schema());
}

TEST(FormatTest, BadMagicThrows) {
  EXPECT_THROW(Deserialize("NOPE...."), CorruptFileError);
  // A well-formed stream under another format version's magic is
  // rejected too.
  std::string other_version = Serialize(SampleTable());
  other_version.replace(0, 4, "SCC2");
  EXPECT_THROW(Deserialize(other_version), CorruptFileError);
}

TEST(FormatTest, TruncatedStreamThrows) {
  std::string data = Serialize(SampleTable());
  data.resize(data.size() / 2);
  EXPECT_THROW(Deserialize(data), std::runtime_error);
}

TEST(FormatTest, FileRoundTrip) {
  const Table t = SampleTable();
  const std::string path = testing::TempDir() + "/sc_format_test.scc";
  WriteTableFileCompressed(t, path);
  const Table loaded = ReadTableFileCompressed(path);
  EXPECT_TRUE(loaded == t);
}

TEST(FormatTest, MissingFileThrows) {
  EXPECT_THROW(ReadTableFileCompressed("/nonexistent/dir/x.scc"),
               std::runtime_error);
}

// ---- Durability: checksum verification and hostile-input hardening ----

// A verifying read detects a single flipped bit anywhere in the stream —
// header, column payloads, per-column checksums, footer. Randomized
// offsets with a fixed seed keep the run deterministic while covering
// the whole byte range over time.
TEST(FormatTest, VerifiedReadDetectsSingleBitFlipsEverywhere) {
  const std::string clean = Serialize(SampleTable());
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<std::size_t> pos(0, clean.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  for (int trial = 0; trial < 128; ++trial) {
    std::string damaged = clean;
    damaged[pos(rng)] ^= static_cast<char>(1 << bit(rng));
    EXPECT_THROW(Deserialize(damaged), CorruptFileError)
        << "trial " << trial;
  }
}

// Truncation at every prefix length must throw (never return a partial
// table), in verifying AND non-verifying mode: the footer end marker
// catches torn tails even without checksum arithmetic.
TEST(FormatTest, TruncationAtEveryLengthThrowsBothModes) {
  const std::string clean = Serialize(SampleTable());
  for (std::size_t len = 0; len < clean.size(); ++len) {
    const std::string cut = clean.substr(0, len);
    EXPECT_THROW(Deserialize(cut), CorruptFileError);
    EXPECT_THROW(Deserialize(cut, ReadOptions{false}), CorruptFileError);
  }
}

// The torn-write shape: right length, tail zeroed. Structural EOF checks
// cannot see it; checksums (and the footer end marker) must.
TEST(FormatTest, ZeroedTailDetected) {
  std::string torn = Serialize(SampleTable());
  std::memset(torn.data() + torn.size() / 2, 0, torn.size() / 2);
  EXPECT_THROW(Deserialize(torn), CorruptFileError);
}

// Hostile headers must never drive allocation: a count field claiming
// 2^60 rows against a tiny stream has to fail fast (bounded reads), not
// attempt the allocation. These streams are garbage after valid magic.
TEST(FormatTest, HostileHeaderCountsNeverOverAllocate) {
  // num_cols = 0xFFFFFFFF, num_rows = 2^60, then nothing.
  std::string data = "SCC1";
  data += std::string("\xFF\xFF\xFF\xFF", 4);
  std::uint64_t rows = 1ULL << 60;
  data.append(reinterpret_cast<const char*>(&rows), sizeof(rows));
  EXPECT_THROW(Deserialize(data), CorruptFileError);

  // Plausible col count but a payload_len far past the actual bytes.
  std::string lying = "SCC1";
  std::uint32_t cols = 1;
  lying.append(reinterpret_cast<const char*>(&cols), sizeof(cols));
  lying.append(reinterpret_cast<const char*>(&rows), sizeof(rows));
  std::uint32_t name_len = 1;
  lying.append(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  lying += "c";
  lying += '\0';    // type = int64
  lying += '\x01';  // encoding = for-varint
  std::int64_t frame_min = 0;
  lying.append(reinterpret_cast<const char*>(&frame_min), sizeof(frame_min));
  std::uint64_t payload_len = 1ULL << 59;
  lying.append(reinterpret_cast<const char*>(&payload_len),
               sizeof(payload_len));
  lying += "only a few real bytes";
  EXPECT_THROW(Deserialize(lying), CorruptFileError);
}

// Dictionary pages are interned by content after verification: with a
// live table holding the clean dictionary, every single-bit flip across
// the page (count, entry lengths, entry bytes) still raises instead of
// resolving to the live object.
TEST(FormatTest, VerifiedReadDetectsBitFlipsInDictionaryPage) {
  const std::string clean = Serialize(SampleTable());
  const Table live = Deserialize(clean);
  // The page starts at the varint entry count (3) right before the first
  // entry ("", length 0) and ends with the last entry "utf8 ✓".
  const std::string last_entry = "utf8 \xe2\x9c\x93";
  const std::size_t page_end = clean.find(last_entry) + last_entry.size();
  const std::size_t page_begin = clean.find("hello") - 3;
  ASSERT_EQ(clean.substr(page_begin, 4),
            std::string("\x03\x00\x05", 3) + "h");
  for (std::size_t pos = page_begin; pos < page_end; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = clean;
      damaged[pos] ^= static_cast<char>(1 << bit);
      EXPECT_THROW(Deserialize(damaged), CorruptFileError)
          << "byte " << pos << " bit " << bit;
    }
  }
  EXPECT_TRUE(live == SampleTable());
}

// Unverified mode still cross-checks the footer's row/column counts and
// end marker, so swapping two files' tails (or garbage counts) is caught
// without checksum arithmetic.
TEST(FormatTest, UnverifiedModeRoundTripsAndChecksFooter) {
  const std::string clean = Serialize(SampleTable());
  const Table loaded = Deserialize(clean, ReadOptions{false});
  EXPECT_TRUE(loaded == SampleTable());
  // Damage the footer's end marker only.
  std::string bad_marker = clean;
  bad_marker[bad_marker.size() - 1] ^= 0x20;
  EXPECT_THROW(Deserialize(bad_marker, ReadOptions{false}),
               CorruptFileError);
}

TEST(FormatTest, CorruptFileErrorIsRuntimeError) {
  // Pre-durability catch sites use std::runtime_error; the typed error
  // must keep satisfying them.
  static_assert(std::is_base_of_v<std::runtime_error, CorruptFileError>);
}

}  // namespace
}  // namespace sc::storage
