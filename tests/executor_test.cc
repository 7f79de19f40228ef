#include <gtest/gtest.h>

#include "engine/executor.h"

namespace sc::engine {
namespace {

TablePtr MakeSales() {
  std::vector<Column> cols;
  cols.push_back(Column::FromInts({1, 1, 2, 3, 3, 3}));
  cols.push_back(Column::FromDoubles({10, 20, 5, 1, 2, 3}));
  return std::make_shared<Table>(
      Table(Schema({Field{"item", DataType::kInt64},
                    Field{"amount", DataType::kFloat64}}),
            std::move(cols)));
}

TablePtr MakeItems() {
  std::vector<Column> cols;
  cols.push_back(Column::FromInts({1, 2, 3}));
  cols.push_back(Column::FromStrings({"widget", "gadget", "gizmo"}));
  return std::make_shared<Table>(
      Table(Schema({Field{"item_id", DataType::kInt64},
                    Field{"item_name", DataType::kString}}),
            std::move(cols)));
}

std::unordered_map<std::string, TablePtr> MakeCatalog() {
  return {{"sales", MakeSales()}, {"items", MakeItems()}};
}

TEST(MapResolverTest, ReserveKeepsResolvesValidAcrossPuts) {
  MapResolver resolver;
  resolver.Reserve(64);
  resolver.Put("sales", MakeSales());
  const TablePtr before = resolver.Resolve("sales", nullptr);
  for (int i = 0; i < 63; ++i) {
    resolver.Put("t" + std::to_string(i), MakeItems());
  }
  EXPECT_EQ(before->num_rows(), 6u);
  EXPECT_TRUE(resolver.Contains("t62"));
  EXPECT_EQ(resolver.Resolve("sales", nullptr), before);
}

TEST(ExecutorTest, ScanReturnsTable) {
  MapResolver resolver(MakeCatalog());
  const TablePtr out = ExecutePlan(*Scan("sales"), resolver);
  EXPECT_EQ(out->num_rows(), 6u);
}

TEST(ExecutorTest, UnknownTableThrows) {
  MapResolver resolver(MakeCatalog());
  EXPECT_THROW(ExecutePlan(*Scan("nope"), resolver), std::out_of_range);
}

TEST(ExecutorTest, FilterProjectPipeline) {
  MapResolver resolver(MakeCatalog());
  const auto plan = Project(
      Filter(Scan("sales"), Ge(Col("amount"), Lit(5.0))),
      {NamedExpr{"item", Col("item")},
       NamedExpr{"half", Div(Col("amount"), Lit(2.0))}});
  const TablePtr out = ExecutePlan(*plan, resolver);
  EXPECT_EQ(out->num_rows(), 3u);
  EXPECT_DOUBLE_EQ(out->column("half").GetDouble(0), 5.0);
}

TEST(ExecutorTest, JoinAggregateSortLimit) {
  MapResolver resolver(MakeCatalog());
  const auto plan = Limit(
      Sort(Aggregate(
               HashJoin(Scan("sales"), Scan("items"), {"item"},
                        {"item_id"}),
               {"item_name"}, {SumOf(Col("amount"), "total")}),
           {"total"}, {true}),
      2);
  const TablePtr out = ExecutePlan(*plan, resolver);
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->column("item_name").GetString(0), "widget");  // 30
  EXPECT_DOUBLE_EQ(out->column("total").GetDouble(0), 30.0);
  EXPECT_EQ(out->column("item_name").GetString(1), "gizmo");  // 6
}

TEST(ExecutorTest, UnionAllPlan) {
  MapResolver resolver(MakeCatalog());
  const auto plan = UnionAll(Scan("sales"), Scan("sales"));
  EXPECT_EQ(ExecutePlan(*plan, resolver)->num_rows(), 12u);
}

TEST(ExecutorTest, FnResolverDelegates) {
  int calls = 0;
  FnResolver resolver([&](const std::string& name,
                          const ColumnSet*) -> TablePtr {
    ++calls;
    EXPECT_EQ(name, "sales");
    return MakeSales();
  });
  const auto plan = UnionAll(Scan("sales"), Scan("sales"));
  EXPECT_EQ(ExecutePlan(*plan, resolver)->num_rows(), 12u);
  EXPECT_EQ(calls, 2);
}

TEST(ExecutorTest, ScanOfEveryColumnAliasesTheResolvedTable) {
  const TablePtr sales = MakeSales();
  MapResolver resolver({{"sales", sales}});
  EXPECT_EQ(ExecutePlan(*Scan("sales"), resolver), sales);
}

// ---- Column pruning, checked against an oracle resolver that ignores
// the column set and always returns whole tables ----

/// Left: k, a, pay. Right: a (the join key), b. The join on left.k =
/// right.a hides the right "a" behind the left one, so the unpruned
/// output is k, a (left), pay, b. "both" has that schema.
std::unordered_map<std::string, TablePtr> MakeCollisionCatalog() {
  auto table = [](std::vector<Field> fields, std::vector<Column> cols) {
    return std::make_shared<const Table>(Schema(std::move(fields)),
                                         std::move(cols));
  };
  std::unordered_map<std::string, TablePtr> out;
  out["left"] = table({Field{"k", DataType::kInt64},
                       Field{"a", DataType::kInt64},
                       Field{"pay", DataType::kFloat64}},
                      {Column::FromInts({1, 2, 2, 3}),
                       Column::FromInts({100, 200, 300, 400}),
                       Column::FromDoubles({0.5, 1.5, 2.5, 3.5})});
  out["right"] = table({Field{"a", DataType::kInt64},
                        Field{"b", DataType::kFloat64}},
                       {Column::FromInts({2, 3, 3}),
                        Column::FromDoubles({10, 20, 30})});
  out["both"] = table({Field{"k", DataType::kInt64},
                       Field{"a", DataType::kInt64},
                       Field{"pay", DataType::kFloat64},
                       Field{"b", DataType::kFloat64}},
                      {Column::FromInts({2, 9}), Column::FromInts({7, 8}),
                       Column::FromDoubles({0.25, 0.75}),
                       Column::FromDoubles({1, 2})});
  return out;
}

void ExpectMatchesOracle(const PlanNode& plan) {
  const auto catalog = MakeCollisionCatalog();
  FnResolver oracle([&](const std::string& name, const ColumnSet*) {
    return catalog.at(name);
  });
  MapResolver pruned(catalog);
  const TablePtr expected = ExecutePlan(plan, oracle);
  const TablePtr actual = ExecutePlan(plan, pruned);
  EXPECT_TRUE(actual->schema() == expected->schema()) << plan.ToString();
  EXPECT_TRUE(*actual == *expected) << plan.ToString();
}

TEST(ExecutorPruningTest, HiddenRightColumnNothingAboveNeeds) {
  const auto join = HashJoin(Scan("left"), Scan("right"), {"k"}, {"a"});
  // Only k and b are needed: the left "a" is pruned, so the right "a"
  // surfaces in the join output.
  ExpectMatchesOracle(*Project(join, {NamedExpr{"k", Col("k")},
                                      NamedExpr{"b", Col("b")}}));
  // Above a UnionAll the surfaced column must not break the match with
  // the other input, which has the unpruned schema.
  ExpectMatchesOracle(*Aggregate(UnionAll(join, Scan("both")), {"k"},
                                 {SumOf(Col("b"), "sum_b")}));
  ExpectMatchesOracle(*Aggregate(UnionAll(Scan("both"), join), {"k"},
                                 {SumOf(Col("b"), "sum_b")}));
  // Needing "a" keeps the left one.
  ExpectMatchesOracle(*Project(join, {NamedExpr{"a", Col("a")},
                                      NamedExpr{"b", Col("b")}}));
  ExpectMatchesOracle(*Filter(join, Gt(Col("pay"), Lit(1.0))));
}

TEST(ExecutorPruningTest, PlansThatNeedNoColumnKeepTheirRows) {
  ExpectMatchesOracle(*Aggregate(Scan("left"), {}, {CountAll("n")}));
  ExpectMatchesOracle(*Aggregate(
      Filter(Scan("left"), Lit(std::int64_t{1})), {}, {CountAll("n")}));
  ExpectMatchesOracle(*Project(Scan("right"), {NamedExpr{"one", Lit(1.0)}}));
  ExpectMatchesOracle(*Aggregate(
      UnionAll(HashJoin(Scan("left"), Scan("right"), {"k"}, {"a"}),
               Scan("both")),
      {}, {CountAll("n")}));
}

TEST(ExecutorPruningTest, SortLimitAndFilterKeepTheirKeys) {
  ExpectMatchesOracle(*Project(
      Limit(Sort(Filter(Scan("left"), Gt(Col("a"), Lit(std::int64_t{100}))),
                 {"pay"}, {true}),
            2),
      {NamedExpr{"k", Col("k")}}));
}

TEST(PlanTest, ReferencedTablesCollectsScans) {
  const auto plan = HashJoin(Scan("a"), Filter(Scan("b"), Lit(std::int64_t{1})),
                             {"x"}, {"y"});
  const auto tables = plan->ReferencedTables();
  EXPECT_EQ(tables.size(), 2u);
  EXPECT_NE(std::find(tables.begin(), tables.end(), "a"), tables.end());
  EXPECT_NE(std::find(tables.begin(), tables.end(), "b"), tables.end());
}

TEST(PlanTest, ToStringShowsTree) {
  const auto plan =
      Limit(Sort(Scan("t"), {"k"}, {false}), 10);
  const std::string s = plan->ToString();
  EXPECT_NE(s.find("Limit(10)"), std::string::npos);
  EXPECT_NE(s.find("Sort(k)"), std::string::npos);
  EXPECT_NE(s.find("Scan(t)"), std::string::npos);
}

}  // namespace
}  // namespace sc::engine
