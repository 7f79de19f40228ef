// Dictionary-encoded string columns, end to end: randomized
// encode/decode round-trips, bit-identity of every operator on
// dictionary-encoded inputs vs their plain twins (and vs the scalar
// reference), the shared-dictionary join/aggregate code paths, the
// dict-vs-literal comparison fast path, and the SCC1 compressed block
// format (dictionary pages for strings, frame-of-reference zig-zag
// varints for ints) through stream and file round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/expr.h"
#include "engine/operators.h"
#include "engine/scalar_reference.h"
#include "storage/format.h"
#include "storage/shared_catalog.h"

namespace sc::engine {
namespace {

/// Edge-heavy string pool: empty string, SSO-sized, heap-sized,
/// embedded NUL and non-ASCII bytes — everything the dictionary page
/// serializer has to carry byte-exactly.
std::vector<std::string> EdgePool() {
  return {"",
          "a",
          "short",
          "exactly_15_ch_s",
          std::string("embedded\0nul", 12),
          std::string(40, 'x'),
          "caf\xc3\xa9_utf8",
          "zzz_" + std::string(100, 'q')};
}

Table RandomStringTable(Rng* rng, std::size_t rows) {
  const std::vector<std::string> pool = EdgePool();
  std::vector<std::int64_t> id(rows), key(rows);
  std::vector<double> x(rows);
  std::vector<std::string> s(rows), t(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    id[r] = static_cast<std::int64_t>(r) - 100;
    key[r] = rng->Zipf(11, 1.1);
    if (rng->Bernoulli(0.05)) {
      x[r] = std::numeric_limits<double>::quiet_NaN();
    } else if (rng->Bernoulli(0.05)) {
      x[r] = -0.0;
    } else {
      x[r] = rng->UniformDouble(-5.0, 5.0);
    }
    s[r] = pool[static_cast<std::size_t>(rng->UniformInt(
        0, static_cast<std::int64_t>(pool.size()) - 1))];
    t[r] = "grp_" + std::to_string(rng->UniformInt(0, 6));
  }
  return Table(Schema({Field{"id", DataType::kInt64},
                       Field{"key", DataType::kInt64},
                       Field{"x", DataType::kFloat64},
                       Field{"s", DataType::kString},
                       Field{"t", DataType::kString}}),
               {Column::FromInts(std::move(id)),
                Column::FromInts(std::move(key)),
                Column::FromDoubles(std::move(x)),
                Column::FromStrings(std::move(s)),
                Column::FromStrings(std::move(t))});
}

/// Twin with every string column dictionary-encoded. Logically equal to
/// the input (Table::operator== is representation-agnostic).
Table EncodeStrings(const Table& t) {
  std::vector<Column> cols;
  for (std::size_t i = 0; i < t.num_columns(); ++i) {
    const Column& col = t.column(i);
    cols.push_back(col.type() == DataType::kString &&
                           !col.dictionary_encoded()
                       ? col.DictionaryEncode()
                       : col);
  }
  return Table(t.schema(), std::move(cols));
}

TEST(DictionaryColumnTest, RandomizedRoundTrip) {
  Rng rng(9001);
  const std::vector<std::string> pool = EdgePool();
  for (const std::size_t rows :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{500}}) {
    std::vector<std::string> values(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      values[r] = pool[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(pool.size()) - 1))];
    }
    const Column plain = Column::FromStrings(values);
    const Column encoded = plain.DictionaryEncode();
    ASSERT_TRUE(encoded.dictionary_encoded());
    ASSERT_EQ(encoded.size(), rows);
    // Dictionary is sorted and unique; codes are in range.
    const auto& dict = *encoded.dictionary();
    for (std::size_t i = 0; i + 1 < dict.size(); ++i) {
      EXPECT_LT(dict[i], dict[i + 1]);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      ASSERT_GE(encoded.codes()[r], 0);
      ASSERT_LT(static_cast<std::size_t>(encoded.codes()[r]), dict.size());
      EXPECT_EQ(encoded.GetString(r), values[r]);
    }
    // Representation-agnostic equality both ways, and decode restores
    // the exact plain column.
    EXPECT_TRUE(encoded == plain);
    EXPECT_TRUE(plain == encoded);
    const Column decoded = encoded.DecodeDictionary();
    EXPECT_FALSE(decoded.dictionary_encoded());
    EXPECT_EQ(decoded.strings(), values);
  }
}

TEST(DictionaryColumnTest, EncodedByteSizeShrinksRepetitiveColumns) {
  // 4k rows over 8 distinct heap-length strings: codes + one dictionary
  // must be far smaller than 4k heap-allocated strings.
  std::vector<std::string> values(4096);
  for (std::size_t r = 0; r < values.size(); ++r) {
    values[r] = "warehouse_category_" + std::to_string(r % 8) +
                std::string(20, 'p');
  }
  const Column plain = Column::FromStrings(std::move(values));
  const Column encoded = plain.DictionaryEncode();
  EXPECT_LT(encoded.ByteSize(), plain.ByteSize() / 4);
}

TEST(DictionaryOperatorTest, EveryOperatorBitIdenticalVsPlain) {
  Rng rng(9002);
  for (const std::size_t rows :
       {std::size_t{0}, std::size_t{3}, std::size_t{400}}) {
    const Table plain = RandomStringTable(&rng, rows);
    const Table dict = EncodeStrings(plain);
    ASSERT_TRUE(plain == dict);

    const auto pred = And(Eq(Col("s"), Lit(std::string("short"))),
                          Gt(Col("key"), Lit(std::int64_t{1})));
    EXPECT_TRUE(FilterTable(dict, *pred) == FilterTable(plain, *pred));
    EXPECT_TRUE(FilterTable(dict, *pred) ==
                scalar::FilterTableScalar(plain, *pred));

    const std::vector<NamedExpr> projections = {
        {"s2", Col("s")}, {"flag", Ge(Col("t"), Lit(std::string("grp_3")))}};
    EXPECT_TRUE(ProjectTable(dict, projections) ==
                ProjectTable(plain, projections));

    const std::vector<AggSpec> aggs = {CountAll("n"), SumOf(Col("x"), "sx"),
                                       MinOf(Col("s"), "min_s"),
                                       MaxOf(Col("s"), "max_s")};
    for (const std::vector<std::string> keys :
         {std::vector<std::string>{"t"}, std::vector<std::string>{"s", "t"},
          std::vector<std::string>{"key", "s"}}) {
      EXPECT_TRUE(AggregateTable(dict, keys, aggs) ==
                  AggregateTable(plain, keys, aggs));
      EXPECT_TRUE(AggregateTable(dict, keys, aggs) ==
                  scalar::AggregateTableScalar(plain, keys, aggs));
    }

    EXPECT_TRUE(SortTable(dict, {"s", "id"}, {false, false}) ==
                SortTable(plain, {"s", "id"}, {false, false}));
    EXPECT_TRUE(SortTable(dict, {"t", "x"}, {true, false}) ==
                scalar::SortTableScalar(plain, {"t", "x"}, {true, false}));
  }
}

TEST(DictionaryOperatorTest, JoinsAcrossRepresentationsAgree) {
  Rng rng(9003);
  const Table left_plain = RandomStringTable(&rng, 300);
  const Table right_plain = RandomStringTable(&rng, 90);
  const Table ref = scalar::HashJoinTablesScalar(left_plain, right_plain,
                                                 {"s"}, {"s"});
  const Table left_dict = EncodeStrings(left_plain);
  const Table right_dict = EncodeStrings(right_plain);
  // Distinct dictionary objects (built per column): correct via the
  // decoded-hash fallback.
  EXPECT_TRUE(HashJoinTables(left_dict, right_dict, {"s"}, {"s"}) == ref);
  // Mixed representations on the two sides.
  EXPECT_TRUE(HashJoinTables(left_dict, right_plain, {"s"}, {"s"}) == ref);
  EXPECT_TRUE(HashJoinTables(left_plain, right_dict, {"s"}, {"s"}) == ref);
  // Multi-key with a string component.
  const Table ref2 = scalar::HashJoinTablesScalar(
      left_plain, right_plain, {"key", "s"}, {"key", "s"});
  EXPECT_TRUE(HashJoinTables(left_dict, right_dict, {"key", "s"},
                             {"key", "s"}) == ref2);
}

TEST(DictionaryOperatorTest, SharedDictionaryJoinTakesCodePath) {
  // Both sides built over ONE dictionary object — the int32-code
  // hash/compare path. The result must still match the plain twins.
  Rng rng(9004);
  auto dict = Column::MakeDictionary(EdgePool());
  const auto n = static_cast<std::int32_t>(dict->size());
  std::vector<std::int32_t> lcodes(500), rcodes(120);
  std::vector<std::int64_t> lid(500), rid(120);
  for (std::size_t r = 0; r < lcodes.size(); ++r) {
    lcodes[r] = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
    lid[r] = static_cast<std::int64_t>(r);
  }
  for (std::size_t r = 0; r < rcodes.size(); ++r) {
    rcodes[r] = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
    rid[r] = static_cast<std::int64_t>(r) * 7;
  }
  const Schema lschema({Field{"s", DataType::kString},
                        Field{"lid", DataType::kInt64}});
  const Schema rschema({Field{"s", DataType::kString},
                        Field{"rid", DataType::kInt64}});
  const Table left(lschema, {Column::FromDictionary(dict, lcodes),
                             Column::FromInts(std::move(lid))});
  const Table right(rschema, {Column::FromDictionary(dict, rcodes),
                              Column::FromInts(std::move(rid))});
  const Table left_plain(
      lschema, {left.column(0).DecodeDictionary(), left.column(1)});
  const Table right_plain(
      rschema, {right.column(0).DecodeDictionary(), right.column(1)});
  EXPECT_TRUE(HashJoinTables(left, right, {"s"}, {"s"}) ==
              scalar::HashJoinTablesScalar(left_plain, right_plain, {"s"},
                                           {"s"}));
  const std::vector<AggSpec> aggs = {CountAll("n"), MaxOf(Col("lid"), "m")};
  EXPECT_TRUE(AggregateTable(left, {"s"}, aggs) ==
              scalar::AggregateTableScalar(left_plain, {"s"}, aggs));
}

TEST(DictionaryExprTest, LiteralComparisonFastPathAllOpsBothSides) {
  Rng rng(9005);
  const Table plain = RandomStringTable(&rng, 300);
  const Table dict = EncodeStrings(plain);
  // Literals present in, absent from, below, and above the dictionary.
  const std::vector<std::string> lits = {"short", "exactly_15_ch_s",
                                         "not_in_dictionary", "", "~~~"};
  using Builder = ExprPtr (*)(ExprPtr, ExprPtr);
  const std::vector<Builder> ops = {&Eq, &Ne, &Lt, &Le, &Gt, &Ge};
  for (const std::string& lit : lits) {
    for (const Builder op : ops) {
      const auto col_lit = op(Col("s"), Lit(lit));
      EXPECT_TRUE(FilterTable(dict, *col_lit) ==
                  scalar::FilterTableScalar(plain, *col_lit))
          << "lit=" << lit;
      // Literal on the left flips the comparison.
      const auto lit_col = op(Lit(lit), Col("s"));
      EXPECT_TRUE(FilterTable(dict, *lit_col) ==
                  scalar::FilterTableScalar(plain, *lit_col))
          << "flipped lit=" << lit;
    }
  }
}

TEST(CompressedFormatTest, RandomizedStreamRoundTrip) {
  Rng rng(9006);
  for (const std::size_t rows :
       {std::size_t{0}, std::size_t{1}, std::size_t{350}}) {
    const Table original = RandomStringTable(&rng, rows);
    std::stringstream buffer;
    storage::WriteTableCompressed(original, buffer);
    const Table restored = storage::ReadTableCompressed(buffer);
    EXPECT_TRUE(restored == original);
    // String columns come back dictionary-encoded — the compressed
    // residency representation survives the spill round-trip.
    for (std::size_t i = 0; i < restored.num_columns(); ++i) {
      if (restored.column(i).type() == DataType::kString && rows > 0) {
        EXPECT_TRUE(restored.column(i).dictionary_encoded());
      }
    }
  }
}

TEST(CompressedFormatTest, IntExtremesSurviveZigZagFor) {
  // Frame-of-reference + zig-zag varints with the worst-case deltas:
  // int64 min/max in one column forces the uint64-wraparound-safe path.
  std::vector<std::int64_t> v = {std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max(),
                                 0,
                                 -1,
                                 1,
                                 std::numeric_limits<std::int64_t>::min()};
  std::vector<double> d = {std::numeric_limits<double>::quiet_NaN(), -0.0,
                           0.0, 1e308, -1e-308, 2.5};
  const Table t(Schema({Field{"v", DataType::kInt64},
                        Field{"d", DataType::kFloat64}}),
                {Column::FromInts(std::move(v)),
                 Column::FromDoubles(std::move(d))});
  std::stringstream buffer;
  storage::WriteTableCompressed(t, buffer);
  EXPECT_TRUE(storage::ReadTableCompressed(buffer) == t);
}

TEST(CompressedFormatTest, FileRoundTripAndBadMagic) {
  Rng rng(9007);
  const Table original = RandomStringTable(&rng, 64);
  const auto dir = std::filesystem::temp_directory_path() / "sc_scc1_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "t.scc").string();
  storage::WriteTableFileCompressed(original, path);
  EXPECT_TRUE(storage::ReadTableFileCompressed(path) == original);
  // A file with any other magic is rejected.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.write("NOPE", 4);
  }
  EXPECT_THROW(storage::ReadTableFileCompressed(path), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(CompressedFormatTest, CompressedSmallerThanPlainOnRepetitiveStrings) {
  std::vector<std::string> s(2000);
  std::vector<std::int64_t> v(2000);
  for (std::size_t r = 0; r < s.size(); ++r) {
    s[r] = "warehouse_category_" + std::to_string(r % 16);
    v[r] = 1'000'000 + static_cast<std::int64_t>(r % 3);  // tiny FOR deltas
  }
  const Table t(Schema({Field{"s", DataType::kString},
                        Field{"v", DataType::kInt64}}),
                {Column::FromStrings(std::move(s)),
                 Column::FromInts(std::move(v))});
  // Fixed-width bound: 8 bytes per int and a 4-byte length per string.
  std::size_t plain_bytes = 0;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    plain_bytes += 8 + 4 + t.column(0).GetString(r).size();
  }
  std::stringstream compressed;
  storage::WriteTableCompressed(t, compressed);
  EXPECT_LT(compressed.str().size(), plain_bytes / 3);
}

// ---- Content interning of dictionaries read from disk ----

/// A category table whose string column is encoded over `dict`.
Table OverDictionary(const Column::DictionaryPtr& dict,
                     std::vector<std::int32_t> codes) {
  std::vector<std::int64_t> ids(codes.size());
  for (std::size_t r = 0; r < ids.size(); ++r) {
    ids[r] = static_cast<std::int64_t>(r);
  }
  return Table(Schema({Field{"s", DataType::kString},
                       Field{"id", DataType::kInt64}}),
               {Column::FromDictionary(dict, std::move(codes)),
                Column::FromInts(std::move(ids))});
}

Table ReadBack(const Table& t) {
  std::stringstream buffer;
  storage::WriteTableCompressed(t, buffer);
  return storage::ReadTableCompressed(buffer);
}

TEST(DictionaryInternTest, IdenticalPagesShareOneDictionaryDistinctDoNot) {
  const auto dir = std::filesystem::temp_directory_path() / "sc_intern_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Two files written from one domain dictionary, with different rows.
  const auto domain = Column::MakeDictionary(EdgePool());
  storage::WriteTableFileCompressed(OverDictionary(domain, {0, 3, 3, 7}),
                                    (dir / "fact.scc").string());
  storage::WriteTableFileCompressed(OverDictionary(domain, {3, 1}),
                                    (dir / "dim.scc").string());
  const Table fact =
      storage::ReadTableFileCompressed((dir / "fact.scc").string());
  const Table dim =
      storage::ReadTableFileCompressed((dir / "dim.scc").string());
  ASSERT_TRUE(fact.column(0).dictionary_encoded());
  EXPECT_EQ(fact.column(0).dictionary(), dim.column(0).dictionary());
  EXPECT_EQ(*fact.column(0).dictionary(), *domain);

  // Joins and unions across the two reads stay on codes.
  const std::int64_t fallbacks = CrossDictionaryFallbacks();
  EXPECT_EQ(HashJoinTables(fact, dim, {"s"}, {"s"}).num_rows(), 2u);
  const Table both = UnionAllTables(fact, dim);
  EXPECT_EQ(both.column(0).dictionary(), fact.column(0).dictionary());
  EXPECT_EQ(CrossDictionaryFallbacks(), fallbacks);

  // A page of different content (one entry fewer) is its own object.
  std::vector<std::string> fewer = EdgePool();
  fewer.pop_back();
  const Table other = ReadBack(
      OverDictionary(Column::MakeDictionary(std::move(fewer)), {0, 1}));
  EXPECT_NE(other.column(0).dictionary(), fact.column(0).dictionary());
  // ...and mixing it in falls back to decoded strings, counted once per
  // operator call.
  HashJoinTables(fact, other, {"s"}, {"s"});
  EXPECT_EQ(CrossDictionaryFallbacks(), fallbacks + 1);
  std::filesystem::remove_all(dir);
}

TEST(DictionaryInternTest, SpillRefillReturnsTheLiveDictionary) {
  const auto dir = std::filesystem::temp_directory_path() / "sc_intern_spill";
  std::filesystem::remove_all(dir);
  const auto domain = Column::MakeDictionary(EdgePool());
  const Table resident = ReadBack(OverDictionary(domain, {1, 2, 3}));
  const Column::DictionaryPtr live = resident.column(0).dictionary();
  storage::SharedCatalog catalog(4096, 8,
                                 storage::SpillOptions{dir.string(), 0});
  ASSERT_TRUE(catalog.Publish(
      1, std::make_shared<Table>(ReadBack(OverDictionary(domain, {4, 0}))),
      3000));
  ASSERT_TRUE(catalog.Publish(
      2, std::make_shared<Table>(OverDictionary(domain, {6})), 3000));
  ASSERT_EQ(catalog.spills(), 1);  // entry 1 went to disk
  const TablePtr refilled = catalog.Pin(1);
  ASSERT_NE(refilled, nullptr);
  EXPECT_EQ(catalog.spill_refills(), 1);
  EXPECT_EQ(refilled->column(0).dictionary(), live);
  catalog.Unpin(1);
  std::filesystem::remove_all(dir);
}

TEST(DictionaryInternTest, RegistryNeverKeepsDictionariesAlive) {
  ASSERT_EQ(Column::LiveInternedDictionaries(), 0u);
  {
    const auto domain = Column::MakeDictionary(EdgePool());
    const Table a = ReadBack(OverDictionary(domain, {0}));
    const Table b = ReadBack(OverDictionary(domain, {1}));
    const Table c =
        ReadBack(OverDictionary(Column::MakeDictionary({"q"}), {0}));
    EXPECT_EQ(Column::LiveInternedDictionaries(), 2u);
  }
  EXPECT_EQ(Column::LiveInternedDictionaries(), 0u);
  // Churn well past the sweep threshold: only what is alive counts.
  for (int i = 0; i < 100; ++i) {
    const Table t = ReadBack(OverDictionary(
        Column::MakeDictionary({"churn_" + std::to_string(i)}), {0}));
    EXPECT_EQ(Column::LiveInternedDictionaries(), 1u);
  }
  EXPECT_EQ(Column::LiveInternedDictionaries(), 0u);
}

TEST(DictionaryInternTest, ConcurrentReadersInternToOneObject) {
  const auto domain = Column::MakeDictionary(EdgePool());
  std::stringstream buffer;
  storage::WriteTableCompressed(OverDictionary(domain, {0, 1, 2, 3}), buffer);
  const std::string bytes = buffer.str();
  constexpr int kThreads = 4;
  constexpr int kReadsPerThread = 50;
  std::vector<std::vector<Table>> reads(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        std::stringstream in(bytes);
        reads[static_cast<std::size_t>(t)].push_back(
            storage::ReadTableCompressed(in));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const Column::DictionaryPtr first = reads[0][0].column(0).dictionary();
  for (const std::vector<Table>& per_thread : reads) {
    for (const Table& t : per_thread) {
      EXPECT_EQ(t.column(0).dictionary(), first);
    }
  }
  EXPECT_EQ(Column::LiveInternedDictionaries(), 1u);
}

}  // namespace
}  // namespace sc::engine
