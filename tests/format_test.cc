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

// ---- Projected reads ----

// [begin, end) of each column's payload in an SCC1 stream, found by
// walking the documented layout.
std::vector<std::pair<std::size_t, std::size_t>> PayloadRanges(
    const std::string& data) {
  auto u32_at = [&](std::size_t pos) {
    std::uint32_t v = 0;
    std::memcpy(&v, data.data() + pos, sizeof(v));
    return v;
  };
  auto u64_at = [&](std::size_t pos) {
    std::uint64_t v = 0;
    std::memcpy(&v, data.data() + pos, sizeof(v));
    return static_cast<std::size_t>(v);
  };
  const std::uint32_t num_cols = u32_at(4);
  std::size_t pos = 16;  // magic, column count, row count
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::uint32_t c = 0; c < num_cols; ++c) {
    pos += 4 + u32_at(pos);  // name length and name
    const bool int64 = data[pos] == static_cast<char>(DataType::kInt64);
    pos += 2;                // type, encoding
    if (int64) pos += 8;     // frame minimum
    const std::size_t len = u64_at(pos);
    pos += 8;
    ranges.emplace_back(pos, pos + len);
    pos += len + 4;          // payload, checksum word
  }
  return ranges;
}

Table DeserializeColumns(const std::string& data,
                         const engine::ColumnSet& columns,
                         std::int64_t* bytes_read = nullptr,
                         const ReadOptions& options = {}) {
  std::stringstream in(data);
  return ReadTableCompressed(in, options, &columns, bytes_read);
}

TEST(FormatTest, ProjectedReadEqualsSelectedColumnsOfFullRead) {
  const std::string data = Serialize(SampleTable());
  const auto full = std::make_shared<const Table>(Deserialize(data));
  const auto ranges = PayloadRanges(data);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[1].second - ranges[1].first, 3 * sizeof(double));
  const std::vector<std::string> names = {"i", "d", "s"};
  for (unsigned mask = 0; mask < 8; ++mask) {
    engine::ColumnSet columns;
    for (unsigned c = 0; c < 3; ++c) {
      if (mask & (1u << c)) columns.insert(names[c]);
    }
    // An empty set still keeps the first column, for the row count.
    const unsigned kept = mask == 0 ? 1u : mask;
    std::int64_t bytes_read = -1;
    const Table projected = DeserializeColumns(data, columns, &bytes_read);
    EXPECT_TRUE(projected == *engine::SelectColumns(full, &columns))
        << "mask " << mask;
    EXPECT_EQ(projected.num_rows(), full->num_rows()) << "mask " << mask;
    // Charged for the file minus exactly the payloads seeked past.
    std::size_t skipped = 0;
    for (unsigned c = 0; c < 3; ++c) {
      if (!(kept & (1u << c))) {
        skipped += ranges[c].second - ranges[c].first;
      }
    }
    EXPECT_EQ(bytes_read, static_cast<std::int64_t>(data.size() - skipped))
        << "mask " << mask;
  }
  // A set naming every column is a full read.
  std::int64_t bytes_read = -1;
  EXPECT_TRUE(DeserializeColumns(data, {"i", "d", "s"}, &bytes_read) ==
              *full);
  EXPECT_EQ(bytes_read, static_cast<std::int64_t>(data.size()));
}

// A verified projected read checks every byte it consumes: a flip in a
// payload it reads fails its column checksum, and a flip in any column
// header, payload length or checksum word (skipped columns' included)
// or in the counts or footer fails the file checksum. A flip inside a
// skipped payload goes unseen by the projected read and is caught by
// the next full read.
TEST(FormatTest, ProjectedReadVerifiesEverythingItConsumes) {
  const std::string clean = Serialize(SampleTable());
  const auto ranges = PayloadRanges(clean);
  const engine::ColumnSet columns = {"d"};
  const Table expected = DeserializeColumns(clean, columns);
  auto skipped = [&](std::size_t pos) {
    for (std::size_t c : {0u, 2u}) {
      if (pos >= ranges[c].first && pos < ranges[c].second) return true;
    }
    return false;
  };
  for (std::size_t pos = 0; pos < clean.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = clean;
      damaged[pos] ^= static_cast<char>(1 << bit);
      if (skipped(pos)) {
        EXPECT_TRUE(DeserializeColumns(damaged, columns) == expected)
            << "byte " << pos << " bit " << bit;
        EXPECT_THROW(Deserialize(damaged), CorruptFileError)
            << "byte " << pos << " bit " << bit;
      } else {
        EXPECT_THROW(DeserializeColumns(damaged, columns), CorruptFileError)
            << "byte " << pos << " bit " << bit;
      }
    }
  }
}

// A skipped column whose payload length runs past the end of the stream
// fails as truncation before any seek or read, in both modes.
TEST(FormatTest, HostileSkippedPayloadLengthFailsAsTruncation) {
  const std::string clean = Serialize(SampleTable());
  const auto ranges = PayloadRanges(clean);
  const std::size_t len_at = ranges[0].first - 8;  // column "i"
  for (const std::uint64_t hostile :
       {std::uint64_t{1} << 59, ~std::uint64_t{0},
        static_cast<std::uint64_t>(clean.size() - ranges[0].first + 1)}) {
    std::string lying = clean;
    std::memcpy(lying.data() + len_at, &hostile, sizeof(hostile));
    for (const bool verify : {true, false}) {
      try {
        DeserializeColumns(lying, {"d"}, nullptr, ReadOptions{verify});
        ADD_FAILURE() << "hostile length " << hostile << " was accepted";
      } catch (const CorruptFileError& e) {
        EXPECT_NE(std::string(e.what()).find("truncated column payload"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(FormatTest, CorruptFileErrorIsRuntimeError) {
  // Pre-durability catch sites use std::runtime_error; the typed error
  // must keep satisfying them.
  static_assert(std::is_base_of_v<std::runtime_error, CorruptFileError>);
}

}  // namespace
}  // namespace sc::storage
