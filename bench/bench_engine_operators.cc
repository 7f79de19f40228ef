// Engine-operator microbench: filter / project / hash join / hash
// aggregate / sort at 10^4..10^6 rows, vectorized engine
// (engine/operators.h) vs the retained row-at-a-time scalar reference
// (engine/scalar_reference.h). Reports million input rows per second per
// path and the speedup; emits JSON (stdout and a file).
//
//   $ ./bench/bench_engine_operators [--smoke] [--out FILE] [--floor FILE]
//
// --smoke caps the sweep at 10^5 rows for CI. --floor reads a committed
// JSON of baseline throughputs (bench/engine_bench_floor.json) and exits
// non-zero if the vectorized hash join or hash aggregate at the largest
// benchmarked size runs below 70% of its baseline — the CI guard against
// >30% regressions of the two hottest operators.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "engine/morsel.h"
#include "engine/operators.h"
#include "engine/scalar_reference.h"
#include "runtime/lane_pool.h"
#include "runtime/morsel.h"

namespace sc::bench {
namespace {

using engine::AggSpec;
using engine::Col;
using engine::Column;
using engine::DataType;
using engine::Field;
using engine::Lit;
using engine::Schema;
using engine::Table;

/// Mixed-type table: sequential id, skewed int join/group key, values,
/// and a low-cardinality string key.
Table MakeTable(Rng* rng, std::size_t rows, std::size_t key_range) {
  std::vector<std::int64_t> id(rows);
  std::vector<std::int64_t> key(rows);
  std::vector<double> val(rows);
  std::vector<std::string> cat(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    id[r] = static_cast<std::int64_t>(r);
    key[r] = rng->UniformInt(
        0, static_cast<std::int64_t>(key_range) - 1);
    val[r] = rng->UniformDouble(0.0, 100.0);
    cat[r] = "cat_" + std::to_string(key[r]);
  }
  return Table(Schema({Field{"id", DataType::kInt64},
                       Field{"key", DataType::kInt64},
                       Field{"val", DataType::kFloat64},
                       Field{"cat", DataType::kString}}),
               {Column::FromInts(std::move(id)),
                Column::FromInts(std::move(key)),
                Column::FromDoubles(std::move(val)),
                Column::FromStrings(std::move(cat))});
}

struct OpSample {
  std::string op;
  std::size_t rows = 0;
  double scalar_mrows = 0.0;      // million input rows / second
  double vectorized_mrows = 0.0;
  double speedup = 0.0;
};

double BestOfSeconds(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    fn();
    const double s = timer.Seconds();
    if (best == 0.0 || s < best) best = s;
  }
  return best;
}

/// Reads `"key":<number>` out of a flat JSON file (no external JSON
/// dependency; the floor file is committed and tiny).
bool ParseJsonNumber(const std::string& text, const std::string& key,
                     double* out) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t colon = text.find(':', at + needle.size());
  if (colon == std::string::npos) return false;
  *out = std::strtod(text.c_str() + colon + 1, nullptr);
  return true;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_engine_operators.json";
  std::string floor_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--floor") == 0 && i + 1 < argc) {
      floor_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--smoke] [--out FILE] [--floor FILE]\n";
      return 2;
    }
  }

  Banner("Vectorized operators vs scalar reference",
         "engine hot path: typed FNV hash keys, selection-vector "
         "filtering, batch gather, vectorized expressions (no paper "
         "counterpart; MonetDB/X100-style execution)");

  const std::vector<std::size_t> row_sweep =
      smoke ? std::vector<std::size_t>{10'000, 100'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  const int reps = smoke ? 2 : 3;

  const auto filter_pred =
      engine::And(engine::Gt(Col("val"), Lit(25.0)),
                  engine::Ne(engine::Mod(Col("key"), Lit(std::int64_t{7})),
                             Lit(std::int64_t{0})));
  const std::vector<engine::NamedExpr> projections = {
      {"id", Col("id")},
      {"scaled", engine::Mul(engine::Add(Col("val"), Lit(1.5)),
                             Lit(0.25))},
      {"bucket", engine::Mod(engine::Add(Col("key"), Col("id")),
                             Lit(std::int64_t{1024}))},
  };
  const std::vector<AggSpec> aggregates = {
      engine::SumOf(Col("val"), "sum_val"),
      engine::CountAll("cnt"),
      engine::AvgOf(Col("val"), "avg_val"),
      engine::MaxOf(Col("id"), "max_id"),
  };

  std::vector<OpSample> samples;
  TablePrinter table({"operator", "rows", "scalar Mrows/s",
                      "vectorized Mrows/s", "speedup"});
  std::size_t sink = 0;  // defeat dead-code elimination
  for (const std::size_t rows : row_sweep) {
    Rng rng(271828);
    const Table input = MakeTable(&rng, rows, rows / 8 + 1);
    const Table build = MakeTable(&rng, rows / 4 + 1, rows / 8 + 1);

    struct Variant {
      std::string name;
      std::function<Table()> scalar;
      std::function<Table()> vectorized;
    };
    const std::vector<Variant> variants = {
        {"filter",
         [&] { return engine::scalar::FilterTableScalar(input,
                                                        *filter_pred); },
         [&] { return engine::FilterTable(input, *filter_pred); }},
        {"project",
         [&] {
           return engine::scalar::ProjectTableScalar(input, projections);
         },
         [&] { return engine::ProjectTable(input, projections); }},
        {"hash_join_int",
         [&] {
           return engine::scalar::HashJoinTablesScalar(input, build,
                                                       {"key"}, {"key"});
         },
         [&] {
           return engine::HashJoinTables(input, build, {"key"}, {"key"});
         }},
        {"hash_join_string",
         [&] {
           return engine::scalar::HashJoinTablesScalar(input, build,
                                                       {"cat"}, {"cat"});
         },
         [&] {
           return engine::HashJoinTables(input, build, {"cat"}, {"cat"});
         }},
        {"hash_aggregate_int",
         [&] {
           return engine::scalar::AggregateTableScalar(input, {"key"},
                                                       aggregates);
         },
         [&] { return engine::AggregateTable(input, {"key"}, aggregates); }},
        {"hash_aggregate_string",
         [&] {
           return engine::scalar::AggregateTableScalar(input, {"cat"},
                                                       aggregates);
         },
         [&] { return engine::AggregateTable(input, {"cat"}, aggregates); }},
        {"sort",
         [&] {
           return engine::scalar::SortTableScalar(input, {"key", "val"},
                                                  {false, true});
         },
         [&] {
           return engine::SortTable(input, {"key", "val"}, {false, true});
         }},
    };

    for (const Variant& v : variants) {
      // Correctness cross-check before timing: the two paths must agree
      // bit-for-bit on the bench inputs too.
      if (!(v.scalar() == v.vectorized())) {
        std::cerr << "MISMATCH between scalar and vectorized " << v.name
                  << " at " << rows << " rows\n";
        return 1;
      }
      const double scalar_s =
          BestOfSeconds(reps, [&] { sink += v.scalar().num_rows(); });
      const double vector_s =
          BestOfSeconds(reps, [&] { sink += v.vectorized().num_rows(); });
      OpSample s;
      s.op = v.name;
      s.rows = rows;
      s.scalar_mrows = static_cast<double>(rows) / scalar_s / 1e6;
      s.vectorized_mrows = static_cast<double>(rows) / vector_s / 1e6;
      s.speedup = scalar_s / vector_s;
      samples.push_back(s);
      table.AddRow({s.op, std::to_string(rows),
                    StrFormat("%.2f", s.scalar_mrows),
                    StrFormat("%.2f", s.vectorized_mrows),
                    StrFormat("%.2fx", s.speedup)});
    }
  }
  table.Print(std::cout);
  if (sink == 0) std::cout << " ";  // keep `sink` observable

  // -------------------------------------------------------------------
  // Morsel lane scaling: the same wide hash join / hash aggregate run
  // under a MorselScope at 1/2/4/8 morsels, fanning key hashing, the
  // join's output gather and the aggregate's per-aggregate pass across
  // a LanePool via runtime::LaneMorselRunner — exactly the path the
  // stage runtime installs around a node. Build/probe and grouping stay
  // on one sequential hash table. Speedup is relative to the 1-morsel
  // run of the same binary (1 morsel takes the sequential code path).
  // -------------------------------------------------------------------
  Banner("Morsel lane scaling (intra-operator parallelism)",
         "parallel key hashing, join gather and aggregate pass 2 on the "
         "LanePool around one sequential hash table; bit-identity vs "
         "scalar reference checked before timing");
  struct MorselSample {
    std::string op;
    std::size_t rows = 0;
    int morsels = 0;
    double mrows = 0.0;
    double speedup = 0.0;  // vs the 1-morsel run
  };
  std::vector<MorselSample> morsel_samples;
  {
    const std::size_t rows = smoke ? 100'000 : 1'000'000;
    Rng rng(314159);
    const Table input = MakeTable(&rng, rows, rows / 8 + 1);
    const Table build = MakeTable(&rng, rows / 4 + 1, rows / 8 + 1);
    runtime::LanePool pool(8);

    struct MorselVariant {
      std::string name;
      std::function<Table()> run;
      std::function<Table()> reference;
    };
    const std::vector<MorselVariant> mvariants = {
        {"morsel_hash_join",
         [&] { return engine::HashJoinTables(input, build, {"key"},
                                             {"key"}); },
         [&] {
           return engine::scalar::HashJoinTablesScalar(input, build,
                                                       {"key"}, {"key"});
         }},
        {"morsel_hash_aggregate",
         [&] { return engine::AggregateTable(input, {"key"}, aggregates); },
         [&] {
           return engine::scalar::AggregateTableScalar(input, {"key"},
                                                       aggregates);
         }},
    };
    TablePrinter mtable({"operator", "rows", "morsels", "Mrows/s",
                         "speedup vs 1"});
    for (const MorselVariant& v : mvariants) {
      const Table ref = v.reference();
      double one_morsel_s = 0.0;
      for (const int morsels : {1, 2, 4, 8}) {
        engine::MorselRunner* runner_ptr = nullptr;
        runtime::LaneMorselRunner runner(&pool, /*trace=*/nullptr,
                                         /*trace_job_id=*/0, v.name,
                                         /*task_counter=*/nullptr);
        if (morsels > 1) runner_ptr = &runner;
        engine::MorselContext context(runner_ptr, morsels,
                                      /*min_morsel_rows=*/1);
        engine::MorselScope scope(&context);
        if (!(v.run() == ref)) {
          std::cerr << "MISMATCH vs scalar reference for " << v.name
                    << " at " << morsels << " morsels\n";
          return 1;
        }
        const double s =
            BestOfSeconds(reps, [&] { sink += v.run().num_rows(); });
        if (morsels == 1) one_morsel_s = s;
        MorselSample m;
        m.op = v.name;
        m.rows = rows;
        m.morsels = morsels;
        m.mrows = static_cast<double>(rows) / s / 1e6;
        m.speedup = one_morsel_s / s;
        morsel_samples.push_back(m);
        mtable.AddRow({m.op, std::to_string(rows),
                       std::to_string(morsels),
                       StrFormat("%.2f", m.mrows),
                       StrFormat("%.2fx", m.speedup)});
      }
    }
    mtable.Print(std::cout);
    if (sink == 0) std::cout << " ";
  }

  // -------------------------------------------------------------------
  // Dictionary-encoded string keys: hash join and hash aggregate on a
  // low-cardinality (<= 1k distinct) long-string key, plain string
  // columns vs shared-dictionary columns. With one dictionary object on
  // both sides the engine hashes and compares int32 codes instead of
  // strings — the compressed-residency fast path. Bit-identity between
  // the two representations is checked before timing.
  // -------------------------------------------------------------------
  Banner("Dictionary-encoded string keys (compressed residency)",
         "shared-dictionary int32 code path vs plain std::string hashing "
         "for hash join / hash aggregate at <= 1k distinct keys");
  struct DictSample {
    std::string op;
    std::size_t rows = 0;
    std::size_t distinct = 0;
    double plain_mrows = 0.0;
    double dict_mrows = 0.0;
    double speedup = 0.0;  // plain seconds / dict seconds
  };
  std::vector<DictSample> dict_samples;
  {
    const std::size_t distinct = 1'000;
    // Long (non-SSO) category names; zero-padding keeps lexicographic
    // order equal to numeric order, so code i == name index i.
    std::vector<std::string> names(distinct);
    for (std::size_t i = 0; i < distinct; ++i) {
      std::string digits = std::to_string(i);
      names[i] = "warehouse_category_" +
                 std::string(6 - digits.size(), '0') + digits;
    }
    const Column::DictionaryPtr dict =
        Column::MakeDictionary(std::vector<std::string>(names));

    const auto make_pair = [&](Rng* rng, std::size_t rows)
        -> std::pair<Table, Table> {  // {plain, dict-encoded twin}
      std::vector<std::int64_t> id(rows);
      std::vector<double> val(rows);
      std::vector<std::int32_t> codes(rows);
      std::vector<std::string> cat(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        id[r] = static_cast<std::int64_t>(r);
        val[r] = rng->UniformDouble(0.0, 100.0);
        codes[r] = static_cast<std::int32_t>(
            rng->UniformInt(0, static_cast<std::int64_t>(distinct) - 1));
        cat[r] = names[static_cast<std::size_t>(codes[r])];
      }
      const Schema schema({Field{"id", DataType::kInt64},
                           Field{"val", DataType::kFloat64},
                           Field{"cat", DataType::kString}});
      Table plain(schema, {Column::FromInts(std::vector<std::int64_t>(id)),
                           Column::FromDoubles(std::vector<double>(val)),
                           Column::FromStrings(std::move(cat))});
      Table encoded(schema,
                    {Column::FromInts(std::move(id)),
                     Column::FromDoubles(std::move(val)),
                     Column::FromDictionary(dict, std::move(codes))});
      return {std::move(plain), std::move(encoded)};
    };

    TablePrinter dtable({"operator", "rows", "distinct", "plain Mrows/s",
                         "dict Mrows/s", "speedup"});
    for (const std::size_t rows : row_sweep) {
      if (rows < 100'000) continue;  // the acceptance range is 1e5..1e6
      Rng rng(161803);
      const auto [probe_plain, probe_dict] = make_pair(&rng, rows);
      // Dimension-shaped build side (~1 row per key): the join output
      // stays ~`rows` rows instead of fanning out by rows/distinct.
      const auto [build_plain, build_dict] = make_pair(&rng, distinct);

      struct DictVariant {
        std::string name;
        std::function<Table()> plain;
        std::function<Table()> dict;
      };
      const std::vector<DictVariant> dvariants = {
          {"dict_hash_join",
           [&] {
             return engine::HashJoinTables(probe_plain, build_plain,
                                           {"cat"}, {"cat"});
           },
           [&] {
             return engine::HashJoinTables(probe_dict, build_dict,
                                           {"cat"}, {"cat"});
           }},
          {"dict_hash_aggregate",
           [&] {
             return engine::AggregateTable(probe_plain, {"cat"},
                                           aggregates);
           },
           [&] {
             return engine::AggregateTable(probe_dict, {"cat"},
                                           aggregates);
           }},
      };
      for (const DictVariant& v : dvariants) {
        if (!(v.plain() == v.dict())) {
          std::cerr << "MISMATCH between plain and dictionary " << v.name
                    << " at " << rows << " rows\n";
          return 1;
        }
        // One untimed run right before each side's timed reps: with only
        // two reps under --smoke, a slow first rep after the other side's
        // run could otherwise decide the speedup floor.
        sink += v.plain().num_rows();
        const double plain_s =
            BestOfSeconds(reps, [&] { sink += v.plain().num_rows(); });
        sink += v.dict().num_rows();
        const double dict_s =
            BestOfSeconds(reps, [&] { sink += v.dict().num_rows(); });
        DictSample d;
        d.op = v.name;
        d.rows = rows;
        d.distinct = distinct;
        d.plain_mrows = static_cast<double>(rows) / plain_s / 1e6;
        d.dict_mrows = static_cast<double>(rows) / dict_s / 1e6;
        d.speedup = plain_s / dict_s;
        dict_samples.push_back(d);
        dtable.AddRow({d.op, std::to_string(rows),
                       std::to_string(distinct),
                       StrFormat("%.2f", d.plain_mrows),
                       StrFormat("%.2f", d.dict_mrows),
                       StrFormat("%.2fx", d.speedup)});
      }
    }
    dtable.Print(std::cout);
    if (sink == 0) std::cout << " ";
  }

  std::ostringstream json;
  json << "{\"bench\":\"engine_operators\",\"samples\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const OpSample& s = samples[i];
    if (i > 0) json << ",";
    json << StrFormat(
        "{\"op\":\"%s\",\"rows\":%zu,\"scalar_mrows_per_sec\":%.3f,"
        "\"vectorized_mrows_per_sec\":%.3f,\"speedup\":%.3f}",
        s.op.c_str(), s.rows, s.scalar_mrows, s.vectorized_mrows,
        s.speedup);
  }
  json << "],\"morsels\":[";
  for (std::size_t i = 0; i < morsel_samples.size(); ++i) {
    const MorselSample& m = morsel_samples[i];
    if (i > 0) json << ",";
    json << StrFormat(
        "{\"op\":\"%s\",\"rows\":%zu,\"morsels\":%d,"
        "\"mrows_per_sec\":%.3f,\"speedup_vs_1\":%.3f}",
        m.op.c_str(), m.rows, m.morsels, m.mrows, m.speedup);
  }
  json << "],\"dictionary\":[";
  for (std::size_t i = 0; i < dict_samples.size(); ++i) {
    const DictSample& d = dict_samples[i];
    if (i > 0) json << ",";
    json << StrFormat(
        "{\"op\":\"%s\",\"rows\":%zu,\"distinct\":%zu,"
        "\"plain_mrows_per_sec\":%.3f,\"dict_mrows_per_sec\":%.3f,"
        "\"speedup\":%.3f}",
        d.op.c_str(), d.rows, d.distinct, d.plain_mrows, d.dict_mrows,
        d.speedup);
  }
  json << "]}";
  std::cout << "\n" << json.str() << "\n";
  std::ofstream(out_path) << json.str() << "\n";

  if (!floor_path.empty()) {
    std::ifstream in(floor_path);
    if (!in) {
      std::cerr << "cannot read floor file " << floor_path << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    bool ok = true;
    for (const std::string op : {"hash_join_int", "hash_aggregate_int"}) {
      double baseline = 0.0;
      if (!ParseJsonNumber(text, op + "_mrows_per_sec", &baseline)) {
        std::cerr << "floor file missing " << op << "_mrows_per_sec\n";
        ok = false;
        continue;
      }
      // Largest benchmarked size for this op.
      double measured = 0.0;
      for (const OpSample& s : samples) {
        if (s.op == op) measured = s.vectorized_mrows;  // last = largest
      }
      const double floor = 0.7 * baseline;
      std::cout << StrFormat(
          "floor check %s: measured %.2f Mrows/s vs floor %.2f (baseline "
          "%.2f - 30%%): %s\n",
          op.c_str(), measured, floor, baseline,
          measured >= floor ? "ok" : "REGRESSION");
      if (measured < floor) ok = false;
    }
    // Morsel scaling floor: the 4-morsel speedup over the 1-morsel run
    // must stay above 0.7 x the committed baseline. The baseline is set
    // conservatively (CI runners may have fewer cores than lanes) so
    // this catches fan-out turning into a slowdown, not tuning noise.
    for (const std::string op :
         {"morsel_hash_join", "morsel_hash_aggregate"}) {
      double baseline = 0.0;
      if (!ParseJsonNumber(text, op + "_speedup_4", &baseline)) {
        std::cerr << "floor file missing " << op << "_speedup_4\n";
        ok = false;
        continue;
      }
      double measured = 0.0;
      for (const MorselSample& m : morsel_samples) {
        if (m.op == op && m.morsels == 4) measured = m.speedup;
      }
      const double floor = 0.7 * baseline;
      std::cout << StrFormat(
          "floor check %s: 4-morsel speedup %.2fx vs floor %.2fx "
          "(baseline %.2fx - 30%%): %s\n",
          op.c_str(), measured, floor, baseline,
          measured >= floor ? "ok" : "REGRESSION");
      if (measured < floor) ok = false;
    }
    // Dictionary code-path floor: the shared-dict join/aggregate speedup
    // over the plain string path at the largest size must stay above
    // 0.7 x the committed baseline AND above the 2x acceptance bar for
    // low-cardinality keys — the compressed-residency fast path must
    // never quietly decay into string hashing.
    for (const std::string op : {"dict_hash_join", "dict_hash_aggregate"}) {
      double baseline = 0.0;
      if (!ParseJsonNumber(text, op + "_speedup", &baseline)) {
        std::cerr << "floor file missing " << op << "_speedup\n";
        ok = false;
        continue;
      }
      double measured = 0.0;
      for (const DictSample& d : dict_samples) {
        if (d.op == op) measured = d.speedup;  // last = largest
      }
      const double floor = std::max(0.7 * baseline, 2.0);
      std::cout << StrFormat(
          "floor check %s: dict speedup %.2fx vs floor %.2fx (baseline "
          "%.2fx - 30%%, min 2x): %s\n",
          op.c_str(), measured, floor, baseline,
          measured >= floor ? "ok" : "REGRESSION");
      if (measured < floor) ok = false;
    }
    if (!ok) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sc::bench

int main(int argc, char** argv) { return sc::bench::Main(argc, argv); }
