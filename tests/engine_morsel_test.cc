// Determinism suite for morsel-driven intra-operator parallelism:
// HashJoinTables and AggregateTable are executed under a MorselScope at
// several morsel counts (real LanePool helpers via
// runtime::LaneMorselRunner) and asserted bit-identical — through
// Table::operator== — to both the single-threaded path and the scalar
// reference. Includes NaN / signed-zero doubles (Column::operator==
// compares doubles by bit pattern) and an 8-thread stress run in which
// concurrent jobs share one LanePool for their interior morsels (the
// TSAN target for this layer).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/morsel.h"
#include "engine/operators.h"
#include "engine/scalar_reference.h"
#include "runtime/lane_pool.h"
#include "runtime/morsel.h"

namespace sc::engine {
namespace {

/// Randomized table mirroring the vectorized suite's shape — skewed int
/// keys so joins/groups collide, strings with SSO and heap lengths —
/// plus adversarial doubles: NaN and -0.0 rows, which only survive a
/// merge that replays the exact sequential row order.
Table RandomTable(Rng* rng, std::size_t rows) {
  std::vector<std::int64_t> id(rows);
  std::vector<std::int64_t> key(rows);
  std::vector<std::int64_t> a(rows);
  std::vector<double> x(rows);
  std::vector<std::string> s(rows);
  const std::vector<std::string> pool = {"alpha", "beta", "gamma", "delta",
                                         "epsilon"};
  for (std::size_t r = 0; r < rows; ++r) {
    id[r] = static_cast<std::int64_t>(r);
    key[r] = rng->Zipf(17, 1.1);
    a[r] = rng->UniformInt(-50, 50);
    if (rng->Bernoulli(0.05)) {
      x[r] = std::numeric_limits<double>::quiet_NaN();
    } else if (rng->Bernoulli(0.05)) {
      x[r] = -0.0;
    } else if (rng->Bernoulli(0.2)) {
      x[r] = static_cast<double>(rng->UniformInt(0, 5));
    } else {
      x[r] = rng->UniformDouble(-10.0, 10.0);
    }
    s[r] = pool[static_cast<std::size_t>(rng->UniformInt(
        0, static_cast<std::int64_t>(pool.size()) - 1))];
    if (rng->Bernoulli(0.3)) {
      s[r] += "_" + std::string(
                        static_cast<std::size_t>(rng->UniformInt(0, 40)),
                        'z');
    }
  }
  return Table(Schema({Field{"id", DataType::kInt64},
                       Field{"key", DataType::kInt64},
                       Field{"a", DataType::kInt64},
                       Field{"x", DataType::kFloat64},
                       Field{"s", DataType::kString}}),
               {Column::FromInts(std::move(id)),
                Column::FromInts(std::move(key)),
                Column::FromInts(std::move(a)),
                Column::FromDoubles(std::move(x)),
                Column::FromStrings(std::move(s))});
}

/// Appends column "ds" to every table: its "s" column dictionary-encoded
/// over ONE dictionary built from all the tables' strings, so "ds" keys
/// share a dictionary object across tables and take the int32-code path
/// (SharedDictStringKeys) — the shape of tables read from disk, whose
/// dictionaries are interned by content.
void AddSharedDictStrings(const std::vector<Table*>& tables) {
  std::vector<std::string> all;
  for (const Table* t : tables) {
    for (std::size_t r = 0; r < t->num_rows(); ++r) {
      all.push_back(t->column("s").GetString(r));
    }
  }
  const Column::DictionaryPtr dict = Column::MakeDictionary(std::move(all));
  for (Table* t : tables) {
    std::vector<std::int32_t> codes(t->num_rows());
    for (std::size_t r = 0; r < codes.size(); ++r) {
      codes[r] = static_cast<std::int32_t>(
          std::lower_bound(dict->begin(), dict->end(),
                           t->column("s").GetString(r)) -
          dict->begin());
    }
    std::vector<Field> fields = t->schema().fields();
    fields.push_back(Field{"ds", DataType::kString});
    std::vector<Column> columns;
    for (std::size_t c = 0; c < t->num_columns(); ++c) {
      columns.push_back(t->column(c));
    }
    columns.push_back(Column::FromDictionary(dict, std::move(codes)));
    *t = Table(Schema(std::move(fields)), std::move(columns));
  }
}

std::vector<AggSpec> AggregateZoo() {
  std::vector<AggSpec> specs;
  specs.push_back(CountAll("n"));
  specs.push_back(SumOf(Col("a"), "sum_a"));
  specs.push_back(SumOf(Col("x"), "sum_x"));
  specs.push_back(AvgOf(Col("x"), "avg_x"));
  specs.push_back(MinOf(Col("a"), "min_a"));
  specs.push_back(MaxOf(Col("x"), "max_x"));
  specs.push_back(MinOf(Col("s"), "min_s"));
  specs.push_back(MaxOf(Col("s"), "max_s"));
  return specs;
}

/// Runs `body` inside a MorselScope whose runner fans out on `pool` with
/// at most `morsels` morsels and no row floor, so PlanMorsels always
/// splits when the operator is eligible.
template <typename Fn>
auto RunWithMorsels(runtime::LanePool* pool, int morsels, Fn&& body) {
  runtime::LaneMorselRunner runner(pool, /*trace=*/nullptr,
                                   /*trace_job_id=*/0, "test-node",
                                   /*task_counter=*/nullptr);
  MorselContext context(&runner, morsels, /*min_morsel_rows=*/1);
  MorselScope scope(&context);
  return body();
}

TEST(MorselJoinTest, BitIdenticalAcrossMorselCounts) {
  Rng rng(101);
  runtime::LanePool pool(4);
  const std::vector<std::vector<std::string>> key_sets = {
      {"key"}, {"key", "s"}, {"x"}, {"a"}, {"ds"}, {"key", "ds"}};
  for (const std::size_t rows :
       {std::size_t{2}, std::size_t{17}, std::size_t{400},
        std::size_t{1500}}) {
    Table left = RandomTable(&rng, rows);
    Table right = RandomTable(&rng, rows / 2 + 1);
    AddSharedDictStrings({&left, &right});
    for (const auto& keys : key_sets) {
      const std::int64_t fallbacks = CrossDictionaryFallbacks();
      const Table ref =
          scalar::HashJoinTablesScalar(left, right, keys, keys);
      const Table seq = HashJoinTables(left, right, keys, keys);
      EXPECT_TRUE(seq == ref);
      for (const int morsels : {1, 2, 8}) {
        const Table par = RunWithMorsels(&pool, morsels, [&] {
          return HashJoinTables(left, right, keys, keys);
        });
        EXPECT_TRUE(par == seq)
            << "join keys[0]=" << keys[0] << " rows=" << rows
            << " morsels=" << morsels;
      }
      if (keys.back() == "ds") {
        // Both sides share one dictionary: codes, never decoded strings.
        EXPECT_EQ(CrossDictionaryFallbacks(), fallbacks);
      }
    }
  }
}

TEST(MorselAggregateTest, BitIdenticalAcrossMorselCounts) {
  Rng rng(202);
  runtime::LanePool pool(4);
  const std::vector<std::vector<std::string>> key_sets = {
      {"key"}, {"s"}, {"key", "s"}, {"x"}, {"ds"}, {"key", "ds"}};
  const std::vector<AggSpec> specs = AggregateZoo();
  for (const std::size_t rows :
       {std::size_t{2}, std::size_t{17}, std::size_t{400},
        std::size_t{1500}}) {
    Table t = RandomTable(&rng, rows);
    AddSharedDictStrings({&t});
    for (const auto& keys : key_sets) {
      const std::int64_t fallbacks = CrossDictionaryFallbacks();
      const Table ref = scalar::AggregateTableScalar(t, keys, specs);
      const Table seq = AggregateTable(t, keys, specs);
      EXPECT_TRUE(seq == ref);
      for (const int morsels : {1, 2, 8}) {
        const Table par = RunWithMorsels(&pool, morsels, [&] {
          return AggregateTable(t, keys, specs);
        });
        EXPECT_TRUE(par == seq)
            << "agg keys[0]=" << keys[0] << " rows=" << rows
            << " morsels=" << morsels;
      }
      if (keys.back() == "ds") {
        EXPECT_EQ(CrossDictionaryFallbacks(), fallbacks);
      }
    }
  }
}

TEST(MorselAggregateTest, GlobalAggregateStaysSequentialAndIdentical) {
  Rng rng(303);
  runtime::LanePool pool(4);
  const Table t = RandomTable(&rng, 777);
  const std::vector<AggSpec> specs = AggregateZoo();
  const Table seq = AggregateTable(t, {}, specs);
  EXPECT_TRUE(seq == scalar::AggregateTableScalar(t, {}, specs));
  const Table par = RunWithMorsels(
      &pool, 8, [&] { return AggregateTable(t, {}, specs); });
  EXPECT_TRUE(par == seq);
}

TEST(MorselAggregateTest, StringArgumentThrowsThroughFanOut) {
  Rng rng(404);
  runtime::LanePool pool(4);
  const Table t = RandomTable(&rng, 300);
  const std::vector<AggSpec> bad = {SumOf(Col("s"), "sum_s")};
  EXPECT_THROW(AggregateTable(t, {"key"}, bad), std::invalid_argument);
  EXPECT_THROW(RunWithMorsels(
                   &pool, 8, [&] { return AggregateTable(t, {"key"}, bad); }),
               std::invalid_argument);
}

TEST(MorselPlanTest, BoundsAndBudget) {
  // MorselBounds: contiguous, ascending, concatenates to [0, rows).
  const auto b = MorselBounds(10, 4);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), 10u);
  for (std::size_t m = 0; m + 1 < b.size() - 1; ++m) {
    EXPECT_LE(b[m + 1] - b[m] - (b[m + 2] - b[m + 1]), 1u);
  }
  // PlanMorsels honours the row floor and the runtime budget.
  runtime::LanePool pool(2);
  runtime::LaneMorselRunner runner(&pool, nullptr, 0, "t", nullptr);
  MorselContext ctx(&runner, /*max_morsels=*/8, /*min_morsel_rows=*/100);
  EXPECT_EQ(ctx.PlanMorsels(50), 1u);    // below the floor
  EXPECT_EQ(ctx.PlanMorsels(250), 2u);   // floor-limited
  EXPECT_EQ(ctx.PlanMorsels(100000), 8u);  // budget-limited
  MorselContext off(nullptr, 8, 1);
  EXPECT_EQ(off.PlanMorsels(100000), 1u);  // no runner -> sequential
}

/// Heavy-hitter build side: one key owns ~90% of the build rows, so one
/// hash chain holds most of the table and every probe of that key walks
/// it. The output must stay bit-identical to the sequential path and the
/// scalar reference at every morsel count.
TEST(MorselJoinTest, HeavyHitterSkewStaysBitIdentical) {
  Rng rng(606);
  runtime::LanePool pool(4);
  const std::size_t rows = 4000;
  std::vector<std::int64_t> id(rows), key(rows);
  std::vector<std::string> s(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    id[r] = static_cast<std::int64_t>(r);
    // ~90% of rows share one key; the rest spread over 1000 keys.
    key[r] = rng.Bernoulli(0.9) ? 7 : rng.UniformInt(100, 1100);
    s[r] = "hh_" + std::to_string(key[r]);
  }
  const Table skewed(Schema({Field{"id", DataType::kInt64},
                             Field{"key", DataType::kInt64},
                             Field{"s", DataType::kString}}),
                     {Column::FromInts(std::move(id)),
                      Column::FromInts(std::move(key)),
                      Column::FromStrings(std::move(s))});
  const Table probe = RandomTable(&rng, 900);
  const Table ref =
      scalar::HashJoinTablesScalar(probe, skewed, {"key"}, {"key"});
  const Table seq = HashJoinTables(probe, skewed, {"key"}, {"key"});
  EXPECT_TRUE(seq == ref);
  for (const int morsels : {2, 3, 4, 8}) {
    const Table par = RunWithMorsels(&pool, morsels, [&] {
      return HashJoinTables(probe, skewed, {"key"}, {"key"});
    });
    EXPECT_TRUE(par == seq) << "morsels=" << morsels;
  }
}

/// Concurrent jobs sharing one LanePool for interior morsels: each
/// thread runs its own join + aggregate under its own MorselScope while
/// helper tasks from all threads interleave on the same lanes. Verifies
/// thread-confined MorselContext state and the shared FanOutState under
/// TSAN, and bit-identical results under contention.
TEST(MorselStressTest, ConcurrentJobsShareOneLanePool) {
  constexpr int kThreads = 8;
  runtime::LanePool pool(4);
  std::vector<Table> inputs;
  std::vector<Table> join_refs;
  std::vector<Table> agg_refs;
  const std::vector<AggSpec> specs = AggregateZoo();
  {
    Rng rng(505);
    for (int i = 0; i < kThreads; ++i) {
      inputs.push_back(RandomTable(&rng, 600 + 37 * i));
      join_refs.push_back(HashJoinTables(inputs[i], inputs[i], {"key"},
                                         {"key"}));
      agg_refs.push_back(AggregateTable(inputs[i], {"key", "s"}, specs));
    }
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int iter = 0; iter < 5; ++iter) {
        const int morsels = 2 + (i + iter) % 7;
        const Table j = RunWithMorsels(&pool, morsels, [&] {
          return HashJoinTables(inputs[i], inputs[i], {"key"}, {"key"});
        });
        const Table a = RunWithMorsels(&pool, morsels, [&] {
          return AggregateTable(inputs[i], {"key", "s"}, specs);
        });
        if (!(j == join_refs[i]) || !(a == agg_refs[i])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace sc::engine
