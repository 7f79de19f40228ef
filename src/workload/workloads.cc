#include "workload/workloads.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "workload/tpcds.h"

namespace sc::workload {

namespace {

using engine::AggSpec;
using engine::AvgOf;
using engine::Col;
using engine::CountAll;
using engine::Lit;
using engine::MaxOf;
using engine::NamedExpr;
using engine::PlanPtr;
using engine::SumOf;

// ---------------------------------------------------------------------------
// NodeScale presets. Values are calibrated so that, fed through the analytic
// scale model and the simulator, workload runtimes and I/O ratios land in the
// neighbourhood of Table III / Figure 9 (shape, not absolute numbers).
// ---------------------------------------------------------------------------

/// Wide fact-table scan producing a large intermediate (normalized sales).
NodeScale BigMv() {
  return NodeScale{.out_mb_per_gb = 12.0,
                   .compute_sec_per_gb = 0.030,
                   .base_in_mb_per_gb = 12.0,
                   .part_out = 0.40,
                   .part_compute = 0.30,
                   .part_in = 0.15};
}

/// Join with a dimension on top of a large intermediate.
NodeScale BigJoinMv() {
  return NodeScale{.out_mb_per_gb = 8.0,
                   .compute_sec_per_gb = 0.025,
                   .base_in_mb_per_gb = 2.0,
                   .part_out = 0.40,
                   .part_compute = 0.30,
                   .part_in = 0.80};
}

/// Medium intermediate (per-item / per-customer rollups).
NodeScale MedMv() {
  return NodeScale{.out_mb_per_gb = 2.0,
                   .compute_sec_per_gb = 0.012,
                   .base_in_mb_per_gb = 0.0,
                   .part_out = 0.40,
                   .part_compute = 0.40,
                   .part_in = 1.0};
}

/// Medium intermediate that scans a fact table directly (Compute 2 sales).
NodeScale MedScanMv() {
  return NodeScale{.out_mb_per_gb = 5.0,
                   .compute_sec_per_gb = 0.050,
                   .base_in_mb_per_gb = 20.0,
                   .part_out = 0.40,
                   .part_compute = 0.35,
                   .part_in = 0.15};
}

/// Small aggregate output.
NodeScale SmallMv() {
  return NodeScale{.out_mb_per_gb = 0.20,
                   .compute_sec_per_gb = 0.008,
                   .base_in_mb_per_gb = 0.0,
                   .part_out = 0.60,
                   .part_compute = 0.80,
                   .part_in = 1.0};
}

/// Compute-dominated aggregation straight over base tables (Compute 1).
NodeScale AggHeavyMv() {
  return NodeScale{.out_mb_per_gb = 0.06,
                   .compute_sec_per_gb = 0.10,
                   .base_in_mb_per_gb = 25.0,
                   .part_out = 1.0,
                   .part_compute = 0.90,
                   .part_in = 0.50};
}

/// Terminal report MV (sort + limit).
NodeScale ReportMv() {
  return NodeScale{.out_mb_per_gb = 0.01,
                   .compute_sec_per_gb = 0.004,
                   .base_in_mb_per_gb = 0.0};
}

// ---------------------------------------------------------------------------
// Builder.
// ---------------------------------------------------------------------------

class Builder {
 public:
  explicit Builder(std::string name, std::string description,
                   std::vector<int> queries) {
    wl_.name = std::move(name);
    wl_.description = std::move(description);
    wl_.tpcds_queries = std::move(queries);
  }

  graph::NodeId Add(const std::string& name, PlanPtr plan, NodeScale scale,
                    const std::vector<std::string>& parents) {
    const graph::NodeId id = wl_.graph.AddNode(name);
    wl_.plans.push_back(std::move(plan));
    wl_.scale.push_back(scale);
    for (const std::string& parent : parents) {
      auto pid = wl_.graph.FindByName(parent);
      if (!pid.has_value()) {
        throw std::logic_error("workload builder: unknown parent " + parent);
      }
      wl_.graph.AddEdge(*pid, id);
    }
    return id;
  }

  MvWorkload Take() { return std::move(wl_); }

 private:
  MvWorkload wl_;
};

/// Channel descriptors: fact table, column prefix, channel literal.
struct Channel {
  const char* fact;
  const char* prefix;
  std::int64_t id;
};
const Channel kChannels[] = {{"store_sales", "ss", 1},
                             {"catalog_sales", "cs", 2},
                             {"web_sales", "ws", 3}};

/// Normalized channel sales: fact JOIN date_dim, filtered to a year range,
/// projected to channel-agnostic column names. The canonical "big
/// intermediate" every workload starts from.
PlanPtr NormalizedSales(const Channel& ch, std::int64_t year_lo,
                        std::int64_t year_hi) {
  const std::string p = ch.prefix;
  auto c = [&p](const char* suffix) { return Col(p + "_" + suffix); };
  PlanPtr joined =
      engine::HashJoin(engine::Scan(ch.fact), engine::Scan("date_dim"),
                       {p + "_sold_date_sk"}, {"d_date_sk"});
  PlanPtr filtered = engine::Filter(
      joined, engine::And(engine::Ge(Col("d_year"), Lit(year_lo)),
                          engine::Le(Col("d_year"), Lit(year_hi))));
  return engine::Project(
      filtered,
      {NamedExpr{"item_sk", c("item_sk")},
       NamedExpr{"customer_sk", c("customer_sk")},
       NamedExpr{"store_sk", c("store_sk")},
       NamedExpr{"promo_sk", c("promo_sk")},
       NamedExpr{"quantity", c("quantity")},
       NamedExpr{"sales_price", c("sales_price")},
       NamedExpr{"ext_price", c("ext_sales_price")},
       NamedExpr{"profit", c("net_profit")},
       NamedExpr{"year", Col("d_year")},
       NamedExpr{"moy", Col("d_moy")},
       NamedExpr{"day_name", Col("d_day_name")}});
}

/// Three-way UnionAll over same-schema MVs.
PlanPtr Union3(const std::string& a, const std::string& b,
               const std::string& c) {
  return engine::UnionAll(
      engine::UnionAll(engine::Scan(a), engine::Scan(b)), engine::Scan(c));
}

}  // namespace

// ---------------------------------------------------------------------------
// I/O 1 — TPC-DS q5, q77, q80 (21 nodes): channel profit reports.
// ---------------------------------------------------------------------------
MvWorkload BuildIo1() {
  Builder b("io1", "Channel profit reports (TPC-DS 5, 77, 80)", {5, 77, 80});
  for (const Channel& ch : kChannels) {
    const std::string p = ch.prefix;
    b.Add("io1_" + p + "_sales", NormalizedSales(ch, 1998, 2002), BigMv(),
          {});
    b.Add("io1_" + p + "_enriched",
          engine::HashJoin(engine::Scan("io1_" + p + "_sales"),
                           engine::Scan("item"), {"item_sk"}, {"i_item_sk"}),
          BigJoinMv(), {"io1_" + p + "_sales"});
    b.Add("io1_" + p + "_profit",
          engine::Project(
              engine::Aggregate(engine::Scan("io1_" + p + "_enriched"),
                                {"store_sk"},
                                {SumOf(Col("ext_price"), "revenue"),
                                 SumOf(Col("profit"), "profit"),
                                 CountAll("cnt")}),
              {NamedExpr{"channel", Lit(ch.id)},
               NamedExpr{"store_sk", Col("store_sk")},
               NamedExpr{"revenue", Col("revenue")},
               NamedExpr{"profit", Col("profit")},
               NamedExpr{"cnt", Col("cnt")}}),
          SmallMv(), {"io1_" + p + "_enriched"});
  }
  b.Add("io1_q5_union",
        Union3("io1_ss_profit", "io1_cs_profit", "io1_ws_profit"), SmallMv(),
        {"io1_ss_profit", "io1_cs_profit", "io1_ws_profit"});
  b.Add("io1_q5_report",
        engine::Limit(engine::Sort(engine::Scan("io1_q5_union"), {"revenue"},
                                   {true}),
                      100),
        ReportMv(), {"io1_q5_union"});
  for (const Channel& ch : kChannels) {
    const std::string p = ch.prefix;
    b.Add("io1_" + p + "_rev",
          engine::Project(
              engine::Aggregate(engine::Scan("io1_" + p + "_sales"), {"moy"},
                                {SumOf(Col("ext_price"), "revenue"),
                                 CountAll("cnt")}),
              {NamedExpr{"channel", Lit(ch.id)},
               NamedExpr{"moy", Col("moy")},
               NamedExpr{"revenue", Col("revenue")},
               NamedExpr{"cnt", Col("cnt")}}),
          SmallMv(), {"io1_" + p + "_sales"});
  }
  b.Add("io1_q77_union", Union3("io1_ss_rev", "io1_cs_rev", "io1_ws_rev"),
        SmallMv(), {"io1_ss_rev", "io1_cs_rev", "io1_ws_rev"});
  b.Add("io1_q77_report",
        engine::Limit(engine::Sort(engine::Scan("io1_q77_union"),
                                   {"revenue"}, {true}),
                      50),
        ReportMv(), {"io1_q77_union"});
  for (const Channel& ch : kChannels) {
    const std::string p = ch.prefix;
    b.Add("io1_" + p + "_promo",
          engine::Project(
              engine::Aggregate(
                  engine::Filter(
                      engine::HashJoin(engine::Scan("io1_" + p + "_enriched"),
                                       engine::Scan("promotion"),
                                       {"promo_sk"}, {"p_promo_sk"}),
                      engine::Eq(Col("p_channel_email"), Lit(std::int64_t{1}))),
                  {"i_category_id"},
                  {SumOf(Col("ext_price"), "revenue"),
                   SumOf(Col("profit"), "profit")}),
              {NamedExpr{"channel", Lit(ch.id)},
               NamedExpr{"i_category_id", Col("i_category_id")},
               NamedExpr{"revenue", Col("revenue")},
               NamedExpr{"profit", Col("profit")}}),
          MedMv(), {"io1_" + p + "_enriched"});
  }
  b.Add("io1_q80_union",
        Union3("io1_ss_promo", "io1_cs_promo", "io1_ws_promo"), SmallMv(),
        {"io1_ss_promo", "io1_cs_promo", "io1_ws_promo"});
  b.Add("io1_q80_report",
        engine::Limit(engine::Sort(engine::Scan("io1_q80_union"), {"profit"},
                                   {true}),
                      100),
        ReportMv(), {"io1_q80_union"});
  return b.Take();
}

// ---------------------------------------------------------------------------
// I/O 2 — TPC-DS q2, q59, q74, q75 (19 nodes): weekly / yearly comparisons.
// ---------------------------------------------------------------------------
MvWorkload BuildIo2() {
  Builder b("io2", "Weekly and yearly sales comparisons (TPC-DS 2, 59, 74, 75)",
            {2, 59, 74, 75});
  for (const Channel& ch : kChannels) {
    b.Add(std::string("io2_") + ch.prefix + "_sales",
          NormalizedSales(ch, 1998, 2002), BigMv(), {});
  }
  // q2: web vs catalog revenue by day-of-week and year.
  b.Add("io2_ws_weekly",
        engine::Project(
            engine::Aggregate(engine::Scan("io2_ws_sales"),
                              {"day_name", "year"},
                              {SumOf(Col("ext_price"), "ws_revenue")}),
            {NamedExpr{"day_name", Col("day_name")},
             NamedExpr{"year", Col("year")},
             NamedExpr{"ws_revenue", Col("ws_revenue")}}),
        SmallMv(), {"io2_ws_sales"});
  b.Add("io2_cs_weekly",
        engine::Project(
            engine::Aggregate(engine::Scan("io2_cs_sales"),
                              {"day_name", "year"},
                              {SumOf(Col("ext_price"), "cs_revenue")}),
            {NamedExpr{"day_name", Col("day_name")},
             NamedExpr{"year", Col("year")},
             NamedExpr{"cs_revenue", Col("cs_revenue")}}),
        SmallMv(), {"io2_cs_sales"});
  b.Add("io2_q2_join",
        engine::HashJoin(engine::Scan("io2_ws_weekly"),
                         engine::Scan("io2_cs_weekly"),
                         {"day_name", "year"}, {"day_name", "year"}),
        SmallMv(), {"io2_ws_weekly", "io2_cs_weekly"});
  b.Add("io2_q2_ratio",
        engine::Project(engine::Scan("io2_q2_join"),
                        {NamedExpr{"day_name", Col("day_name")},
                         NamedExpr{"year", Col("year")},
                         NamedExpr{"ratio", engine::Div(Col("ws_revenue"),
                                                        Col("cs_revenue"))}}),
        SmallMv(), {"io2_q2_join"});
  b.Add("io2_q2_report",
        engine::Sort(engine::Scan("io2_q2_ratio"), {"year", "ratio"},
                     {false, true}),
        ReportMv(), {"io2_q2_ratio"});
  // q59: store monthly revenue.
  b.Add("io2_q59_weekly",
        engine::Aggregate(engine::Scan("io2_ss_sales"),
                          {"store_sk", "year", "moy"},
                          {SumOf(Col("ext_price"), "monthly_rev")}),
        MedMv(), {"io2_ss_sales"});
  b.Add("io2_q59_store",
        engine::HashJoin(engine::Scan("io2_q59_weekly"),
                         engine::Scan("store"), {"store_sk"},
                         {"s_store_sk"}),
        SmallMv(), {"io2_q59_weekly"});
  b.Add("io2_q59_report",
        engine::Limit(engine::Sort(engine::Scan("io2_q59_store"),
                                   {"monthly_rev"}, {true}),
                      100),
        ReportMv(), {"io2_q59_store"});
  // q74: customers whose web spend outgrew store spend.
  b.Add("io2_ss_cust",
        engine::Aggregate(engine::Scan("io2_ss_sales"),
                          {"customer_sk", "year"},
                          {SumOf(Col("ext_price"), "ss_total")}),
        MedMv(), {"io2_ss_sales"});
  b.Add("io2_ws_cust",
        engine::Aggregate(engine::Scan("io2_ws_sales"),
                          {"customer_sk", "year"},
                          {SumOf(Col("ext_price"), "ws_total")}),
        MedMv(), {"io2_ws_sales"});
  b.Add("io2_q74_join",
        engine::HashJoin(engine::Scan("io2_ss_cust"),
                         engine::Scan("io2_ws_cust"),
                         {"customer_sk", "year"}, {"customer_sk", "year"}),
        MedMv(), {"io2_ss_cust", "io2_ws_cust"});
  b.Add("io2_q74_report",
        engine::Limit(
            engine::Sort(
                engine::Filter(engine::Scan("io2_q74_join"),
                               engine::Gt(Col("ws_total"), Col("ss_total"))),
                {"ws_total"}, {true}),
            100),
        ReportMv(), {"io2_q74_join"});
  // q75: catalog category year-over-year delta.
  b.Add("io2_cs_item",
        engine::HashJoin(engine::Scan("io2_cs_sales"), engine::Scan("item"),
                         {"item_sk"}, {"i_item_sk"}),
        BigJoinMv(), {"io2_cs_sales"});
  b.Add("io2_q75_yearly",
        engine::Aggregate(engine::Scan("io2_cs_item"),
                          {"i_category_id", "year"},
                          {SumOf(Col("quantity"), "qty"),
                           SumOf(Col("ext_price"), "amt")}),
        SmallMv(), {"io2_cs_item"});
  b.Add("io2_q75_delta",
        engine::HashJoin(
            engine::Filter(engine::Scan("io2_q75_yearly"),
                           engine::Eq(Col("year"), Lit(std::int64_t{2000}))),
            engine::Project(
                engine::Filter(engine::Scan("io2_q75_yearly"),
                               engine::Eq(Col("year"),
                                          Lit(std::int64_t{1999}))),
                {NamedExpr{"category", Col("i_category_id")},
                 NamedExpr{"prev_qty", Col("qty")},
                 NamedExpr{"prev_amt", Col("amt")}}),
            {"i_category_id"}, {"category"}),
        SmallMv(), {"io2_q75_yearly"});
  b.Add("io2_q75_report",
        engine::Sort(
            engine::Project(
                engine::Scan("io2_q75_delta"),
                {NamedExpr{"i_category_id", Col("i_category_id")},
                 NamedExpr{"qty_delta",
                           engine::Sub(Col("qty"), Col("prev_qty"))},
                 NamedExpr{"amt_delta",
                           engine::Sub(Col("amt"), Col("prev_amt"))}}),
            {"amt_delta"}, {true}),
        ReportMv(), {"io2_q75_delta"});
  return b.Take();
}

// ---------------------------------------------------------------------------
// I/O 3 — TPC-DS q44, q49 (26 nodes): best/worst item rankings per channel.
// ---------------------------------------------------------------------------
MvWorkload BuildIo3() {
  Builder b("io3", "Best/worst performing items per channel (TPC-DS 44, 49)",
            {44, 49});
  for (const Channel& ch : kChannels) {
    const std::string p = ch.prefix;
    const std::string sales = "io3_" + p + "_sales";
    const std::string enriched = "io3_" + p + "_enriched";
    const std::string by_item = "io3_" + p + "_by_item";
    const std::string avg_item = "io3_" + p + "_avg";
    b.Add(sales, NormalizedSales(ch, 1998, 2002), BigMv(), {});
    b.Add(enriched,
          engine::HashJoin(engine::Scan(sales), engine::Scan("item"),
                           {"item_sk"}, {"i_item_sk"}),
          BigJoinMv(), {sales});
    b.Add(by_item,
          engine::Aggregate(engine::Scan(enriched), {"item_sk"},
                            {SumOf(Col("profit"), "profit"),
                             SumOf(Col("ext_price"), "revenue"),
                             CountAll("cnt")}),
          MedMv(), {enriched});
    b.Add(avg_item,
          engine::Project(
              engine::Aggregate(engine::Scan(by_item), {},
                                {AvgOf(Col("profit"), "avg_profit")}),
              {NamedExpr{"key", Lit(std::int64_t{1})},
               NamedExpr{"avg_profit", Col("avg_profit")}}),
          SmallMv(), {by_item});
    auto keyed_items = [&]() {
      return engine::Project(engine::Scan(by_item),
                             {NamedExpr{"key", Lit(std::int64_t{1})},
                              NamedExpr{"item_sk", Col("item_sk")},
                              NamedExpr{"profit", Col("profit")},
                              NamedExpr{"revenue", Col("revenue")},
                              NamedExpr{"cnt", Col("cnt")}});
    };
    auto ranked = [&](bool best) {
      PlanPtr joined = engine::HashJoin(keyed_items(),
                                        engine::Scan(avg_item), {"key"},
                                        {"key"});
      PlanPtr filtered = engine::Filter(
          joined, best ? engine::Gt(Col("profit"), Col("avg_profit"))
                       : engine::Lt(Col("profit"), Col("avg_profit")));
      PlanPtr projected = engine::Project(
          filtered, {NamedExpr{"channel", Lit(ch.id)},
                     NamedExpr{"item_sk", Col("item_sk")},
                     NamedExpr{"profit", Col("profit")},
                     NamedExpr{"revenue", Col("revenue")}});
      return engine::Limit(
          engine::Sort(projected, {"profit"}, {best}), 100);
    };
    b.Add("io3_" + p + "_best", ranked(true), SmallMv(), {by_item, avg_item});
    b.Add("io3_" + p + "_worst", ranked(false), SmallMv(),
          {by_item, avg_item});
  }
  b.Add("io3_q44_best",
        Union3("io3_ss_best", "io3_cs_best", "io3_ws_best"), SmallMv(),
        {"io3_ss_best", "io3_cs_best", "io3_ws_best"});
  b.Add("io3_q44_worst",
        Union3("io3_ss_worst", "io3_cs_worst", "io3_ws_worst"), SmallMv(),
        {"io3_ss_worst", "io3_cs_worst", "io3_ws_worst"});
  b.Add("io3_q44_report",
        engine::Sort(engine::UnionAll(engine::Scan("io3_q44_best"),
                                      engine::Scan("io3_q44_worst")),
                     {"channel", "profit"}, {false, true}),
        ReportMv(), {"io3_q44_best", "io3_q44_worst"});
  for (const Channel& ch : kChannels) {
    const std::string p = ch.prefix;
    b.Add("io3_" + p + "_ratio",
          engine::Project(
              engine::Scan("io3_" + p + "_by_item"),
              {NamedExpr{"channel", Lit(ch.id)},
               NamedExpr{"item_sk", Col("item_sk")},
               NamedExpr{"ratio",
                         engine::Div(Col("profit"), Col("revenue"))}}),
          MedMv(), {"io3_" + p + "_by_item"});
  }
  b.Add("io3_q49_union",
        Union3("io3_ss_ratio", "io3_cs_ratio", "io3_ws_ratio"), MedMv(),
        {"io3_ss_ratio", "io3_cs_ratio", "io3_ws_ratio"});
  b.Add("io3_q49_report",
        engine::Limit(engine::Sort(engine::Scan("io3_q49_union"), {"ratio"},
                                   {true}),
                      100),
        ReportMv(), {"io3_q49_union"});
  return b.Take();
}

// ---------------------------------------------------------------------------
// Compute 1 — TPC-DS q33, q56, q60, q61 (21 nodes): category rollups.
// Aggregations straight over base tables: heavy compute, tiny intermediates.
// ---------------------------------------------------------------------------
MvWorkload BuildCompute1() {
  Builder b("compute1",
            "Category revenue rollups (TPC-DS 33, 56, 60, 61)",
            {33, 56, 60, 61});
  for (const Channel& ch : kChannels) {
    const std::string p = ch.prefix;
    auto c = [&p](const char* suffix) { return Col(p + "_" + suffix); };
    PlanPtr joined = engine::HashJoin(
        engine::HashJoin(engine::Scan(ch.fact), engine::Scan("date_dim"),
                         {p + "_sold_date_sk"}, {"d_date_sk"}),
        engine::Scan("item"), {p + "_item_sk"}, {"i_item_sk"});
    PlanPtr filtered = engine::Filter(
        joined,
        engine::And(engine::Le(Col("i_category_id"), Lit(std::int64_t{5})),
                    engine::Ge(Col("d_year"), Lit(std::int64_t{1999}))));
    b.Add("c1_" + p + "_cat",
          engine::Project(
              engine::Aggregate(
                  filtered,
                  {"i_brand_id", "i_class_id", "i_category_id",
                   "i_manufact_id"},
                  {SumOf(c("ext_sales_price"), "revenue"),
                   SumOf(c("net_profit"), "profit"), CountAll("cnt")}),
              {NamedExpr{"channel", Lit(ch.id)},
               NamedExpr{"i_brand_id", Col("i_brand_id")},
               NamedExpr{"i_class_id", Col("i_class_id")},
               NamedExpr{"i_category_id", Col("i_category_id")},
               NamedExpr{"i_manufact_id", Col("i_manufact_id")},
               NamedExpr{"revenue", Col("revenue")},
               NamedExpr{"profit", Col("profit")},
               NamedExpr{"cnt", Col("cnt")}}),
          AggHeavyMv(), {});
  }
  struct Rollup {
    const char* query;
    const char* key;
  };
  const Rollup rollups[] = {{"q33", "i_manufact_id"},
                            {"q56", "i_class_id"},
                            {"q60", "i_brand_id"}};
  for (const Rollup& rollup : rollups) {
    std::vector<std::string> parts;
    for (const Channel& ch : kChannels) {
      const std::string p = ch.prefix;
      const std::string name =
          std::string("c1_") + rollup.query + "_" + p;
      b.Add(name,
            engine::Project(
                engine::Aggregate(engine::Scan("c1_" + p + "_cat"),
                                  {rollup.key},
                                  {SumOf(Col("revenue"), "revenue")}),
                {NamedExpr{"channel", Lit(ch.id)},
                 NamedExpr{rollup.key, Col(rollup.key)},
                 NamedExpr{"revenue", Col("revenue")}}),
            SmallMv(), {"c1_" + p + "_cat"});
      parts.push_back(name);
    }
    const std::string union_name = std::string("c1_") + rollup.query +
                                   "_union";
    b.Add(union_name, Union3(parts[0], parts[1], parts[2]), SmallMv(),
          parts);
    b.Add(std::string("c1_") + rollup.query + "_report",
          engine::Limit(engine::Sort(engine::Scan(union_name), {"revenue"},
                                     {true}),
                        100),
          ReportMv(), {union_name});
  }
  // q61: promotional revenue share for store sales.
  b.Add("c1_q61_promo",
        engine::Project(
            engine::Aggregate(
                engine::Filter(
                    engine::HashJoin(engine::Scan("store_sales"),
                                     engine::Scan("promotion"),
                                     {"ss_promo_sk"}, {"p_promo_sk"}),
                    engine::Eq(Col("p_channel_email"), Lit(std::int64_t{1}))),
                {}, {SumOf(Col("ss_ext_sales_price"), "promo_rev")}),
            {NamedExpr{"key", Lit(std::int64_t{1})},
             NamedExpr{"promo_rev", Col("promo_rev")}}),
        AggHeavyMv(), {});
  b.Add("c1_q61_total",
        engine::Project(
            engine::Aggregate(engine::Scan("c1_ss_cat"), {},
                              {SumOf(Col("revenue"), "total_rev")}),
            {NamedExpr{"key", Lit(std::int64_t{1})},
             NamedExpr{"total_rev", Col("total_rev")}}),
        SmallMv(), {"c1_ss_cat"});
  b.Add("c1_q61_report",
        engine::Project(
            engine::HashJoin(engine::Scan("c1_q61_promo"),
                             engine::Scan("c1_q61_total"), {"key"}, {"key"}),
            {NamedExpr{"promo_rev", Col("promo_rev")},
             NamedExpr{"total_rev", Col("total_rev")},
             NamedExpr{"share",
                       engine::Div(Col("promo_rev"), Col("total_rev"))}}),
        ReportMv(), {"c1_q61_promo", "c1_q61_total"});
  return b.Take();
}

// ---------------------------------------------------------------------------
// Compute 2 — TPC-DS q14, q23 (16 nodes): cross-channel frequent items.
// ---------------------------------------------------------------------------
MvWorkload BuildCompute2() {
  Builder b("compute2", "Cross-channel frequent items (TPC-DS 14, 23)",
            {14, 23});
  for (const Channel& ch : kChannels) {
    const std::string p = ch.prefix;
    b.Add("c2_" + p + "_sales", NormalizedSales(ch, 1999, 2001),
          MedScanMv(), {});
    b.Add("c2_" + p + "_items",
          engine::Aggregate(engine::Scan("c2_" + p + "_sales"), {"item_sk"},
                            {SumOf(Col("quantity"), "qty"),
                             SumOf(Col("ext_price"), "revenue"),
                             CountAll("cnt")}),
          MedMv(), {"c2_" + p + "_sales"});
  }
  // q14: items sold through all three channels.
  b.Add("c2_common",
        engine::HashJoin(
            engine::HashJoin(
                engine::Scan("c2_ss_items"),
                engine::Project(engine::Scan("c2_cs_items"),
                                {NamedExpr{"cs_item_sk", Col("item_sk")},
                                 NamedExpr{"cs_qty", Col("qty")},
                                 NamedExpr{"cs_revenue", Col("revenue")}}),
                {"item_sk"}, {"cs_item_sk"}),
            engine::Project(engine::Scan("c2_ws_items"),
                            {NamedExpr{"ws_item_sk", Col("item_sk")},
                             NamedExpr{"ws_qty", Col("qty")},
                             NamedExpr{"ws_revenue", Col("revenue")}}),
            {"item_sk"}, {"ws_item_sk"}),
        MedMv(), {"c2_ss_items", "c2_cs_items", "c2_ws_items"});
  b.Add("c2_q14_agg",
        engine::Aggregate(engine::Scan("c2_common"), {},
                          {SumOf(Col("revenue"), "ss_total"),
                           SumOf(Col("cs_revenue"), "cs_total"),
                           SumOf(Col("ws_revenue"), "ws_total"),
                           CountAll("common_items")}),
        SmallMv(), {"c2_common"});
  b.Add("c2_q14_best",
        engine::Limit(
            engine::Sort(
                engine::Project(
                    engine::Scan("c2_common"),
                    {NamedExpr{"item_sk", Col("item_sk")},
                     NamedExpr{"total",
                               engine::Add(engine::Add(Col("revenue"),
                                                       Col("cs_revenue")),
                                           Col("ws_revenue"))}}),
                {"total"}, {true}),
            100),
        SmallMv(), {"c2_common"});
  b.Add("c2_q14_report",
        engine::Sort(engine::HashJoin(engine::Scan("c2_q14_best"),
                                      engine::Scan("item"), {"item_sk"},
                                      {"i_item_sk"}),
                     {"total"}, {true}),
        ReportMv(), {"c2_q14_best"});
  // q23: frequent store items bought by the biggest customers.
  b.Add("c2_cust_totals",
        engine::Aggregate(engine::Scan("c2_ss_sales"), {"customer_sk"},
                          {SumOf(Col("ext_price"), "total")}),
        MedMv(), {"c2_ss_sales"});
  b.Add("c2_freq_items",
        engine::Filter(engine::Scan("c2_ss_items"),
                       engine::Gt(Col("cnt"), Lit(std::int64_t{4}))),
        MedMv(), {"c2_ss_items"});
  b.Add("c2_q23_join",
        engine::HashJoin(engine::Scan("c2_ss_sales"),
                         engine::Scan("c2_freq_items"), {"item_sk"},
                         {"item_sk"}),
        MedMv(), {"c2_ss_sales", "c2_freq_items"});
  b.Add("c2_q23_agg",
        engine::Aggregate(engine::Scan("c2_q23_join"), {"customer_sk"},
                          {SumOf(Col("ext_price"), "freq_total")}),
        SmallMv(), {"c2_q23_join"});
  b.Add("c2_q23_max",
        engine::Project(
            engine::Aggregate(engine::Scan("c2_cust_totals"), {},
                              {MaxOf(Col("total"), "max_total")}),
            {NamedExpr{"key", Lit(std::int64_t{1})},
             NamedExpr{"max_total", Col("max_total")}}),
        SmallMv(), {"c2_cust_totals"});
  b.Add("c2_q23_report",
        engine::Limit(
            engine::Sort(
                engine::Filter(
                    engine::HashJoin(
                        engine::Project(
                            engine::Scan("c2_q23_agg"),
                            {NamedExpr{"key", Lit(std::int64_t{1})},
                             NamedExpr{"customer_sk", Col("customer_sk")},
                             NamedExpr{"freq_total", Col("freq_total")}}),
                        engine::Scan("c2_q23_max"), {"key"}, {"key"}),
                    engine::Gt(Col("freq_total"),
                               engine::Mul(Col("max_total"), Lit(0.1)))),
                {"freq_total"}, {true}),
            100),
        ReportMv(), {"c2_q23_agg", "c2_q23_max"});
  return b.Take();
}

std::vector<MvWorkload> StandardWorkloads() {
  std::vector<MvWorkload> out;
  out.push_back(BuildIo1());
  out.push_back(BuildIo2());
  out.push_back(BuildIo3());
  out.push_back(BuildCompute1());
  out.push_back(BuildCompute2());
  return out;
}

MvWorkload BuildWideSynthetic(int width, bool heavy) {
  using engine::Col;
  using engine::CountAll;
  using engine::Lit;
  using engine::Scan;
  MvWorkload wl;
  wl.name = "wide_synthetic";
  wl.description = "wide antichain of fact-table rollups + union sink";
  const std::vector<std::string> facts = {"store_sales", "catalog_sales",
                                          "web_sales"};
  std::vector<std::string> names;
  for (int i = 0; i < width; ++i) {
    const std::string& fact =
        facts[static_cast<std::size_t>(i) % facts.size()];
    const std::string prefix = ChannelPrefix(fact);
    std::vector<engine::AggSpec> aggs = {
        SumOf(Col(prefix + "_quantity"), "qty"), CountAll("cnt")};
    if (heavy) {
      aggs.push_back(SumOf(Col(prefix + "_net_profit"), "profit"));
    }
    PlanPtr rollup = engine::Aggregate(
        engine::Filter(Scan(fact),
                       engine::Gt(Col(prefix + "_customer_sk"),
                                  Lit(static_cast<std::int64_t>(i)))),
        {prefix + "_item_sk"}, std::move(aggs));
    if (heavy) rollup = engine::Sort(rollup, {"qty"}, {true});
    std::vector<NamedExpr> projections = {
        NamedExpr{"item_sk", Col(prefix + "_item_sk")},
        NamedExpr{"qty", Col("qty")}, NamedExpr{"cnt", Col("cnt")}};
    if (heavy) projections.push_back(NamedExpr{"profit", Col("profit")});
    const std::string name = "wide_mv_" + std::to_string(i);
    wl.graph.AddNode(name);
    wl.plans.push_back(
        engine::Project(std::move(rollup), std::move(projections)));
    wl.scale.push_back(MedMv());
    names.push_back(name);
  }
  PlanPtr all = Scan(names[0]);
  for (std::size_t i = 1; i < names.size(); ++i) {
    all = engine::UnionAll(all, Scan(names[i]));
  }
  const graph::NodeId sink = wl.graph.AddNode("wide_sink");
  wl.plans.push_back(engine::Aggregate(all, {"item_sk"},
                                       {SumOf(Col("qty"), "total_qty")}));
  wl.scale.push_back(SmallMv());
  for (const std::string& name : names) {
    wl.graph.AddEdge(*wl.graph.FindByName(name), sink);
  }
  return wl;
}

MvWorkload BuildStringHeavySynthetic(int width) {
  using engine::Col;
  using engine::CountAll;
  using engine::Lit;
  using engine::Scan;
  MvWorkload wl;
  wl.name = "string_heavy_synthetic";
  wl.description =
      "string-keyed join + rollup antichain over the events/category_dim "
      "tables (compressed-residency shape)";
  std::vector<std::string> names;
  for (int i = 0; i < width; ++i) {
    // Each MV filters a different qty slice so the content fingerprints
    // (and outputs) are distinct, then joins on the string category key
    // and rolls up by (category, bucket): every category string recurs
    // once per bucket in the output, the dictionary-friendly shape.
    PlanPtr rollup = engine::Aggregate(
        engine::HashJoin(
            engine::Filter(Scan("events"),
                           engine::Gt(Col("qty"),
                                      Lit(static_cast<std::int64_t>(i)))),
            Scan("category_dim"), {"category"}, {"category"}),
        {"category", "bucket"},
        {SumOf(Col("qty"), "qty"), SumOf(Col("weight"), "wt"),
         CountAll("cnt")});
    const std::string name = "strheavy_mv_" + std::to_string(i);
    wl.graph.AddNode(name);
    wl.plans.push_back(std::move(rollup));
    wl.scale.push_back(MedMv());
    names.push_back(name);
  }
  PlanPtr all = Scan(names[0]);
  for (std::size_t i = 1; i < names.size(); ++i) {
    all = engine::UnionAll(all, Scan(names[i]));
  }
  const graph::NodeId sink = wl.graph.AddNode("strheavy_sink");
  wl.plans.push_back(engine::Aggregate(
      all, {"category"},
      {SumOf(Col("qty"), "total_qty"), SumOf(Col("cnt"), "total_cnt")}));
  wl.scale.push_back(SmallMv());
  for (const std::string& name : names) {
    wl.graph.AddEdge(*wl.graph.FindByName(name), sink);
  }
  return wl;
}

bool ValidateWorkload(const MvWorkload& wl, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = wl.name + ": " + msg;
    return false;
  };
  const std::int32_t n = wl.graph.num_nodes();
  if (wl.plans.size() != static_cast<std::size_t>(n)) {
    return fail("plan count mismatch");
  }
  if (wl.scale.size() != static_cast<std::size_t>(n)) {
    return fail("scale count mismatch");
  }
  std::string graph_error;
  if (!wl.graph.Validate(&graph_error)) return fail(graph_error);

  const std::vector<std::string> base = BaseTableNames();
  const std::set<std::string> base_set(base.begin(), base.end());
  for (graph::NodeId v = 0; v < n; ++v) {
    if (wl.plans[v] == nullptr) return fail("null plan");
    std::set<std::string> parent_names;
    for (graph::NodeId p : wl.graph.parents(v)) {
      parent_names.insert(wl.graph.node(p).name);
    }
    std::set<std::string> referenced_mvs;
    for (const std::string& t : wl.plans[v]->ReferencedTables()) {
      if (base_set.count(t) > 0) continue;
      if (parent_names.count(t) == 0) {
        return fail("node " + wl.graph.node(v).name +
                    " scans non-parent table " + t);
      }
      referenced_mvs.insert(t);
    }
    if (referenced_mvs != parent_names) {
      return fail("node " + wl.graph.node(v).name +
                  " has edges not reflected in its plan");
    }
  }
  return true;
}

}  // namespace sc::workload
