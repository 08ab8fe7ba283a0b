// Property-based tests (parameterized sweeps) of the core invariants:
//  - any mutation sequence preserves query results exactly,
//  - dynamic partitions of a reachable plan tile the base column
//    (no repetition, no omission — paper §2.3's alignment requirements),
//  - exchange unions preserve base-table order,
//  - the convergence algorithm always terminates within its bounds,
//  - sliced clones over random candidate lists (narrowed by binary search
//    when the list is flagged ascending) match the scalar interpreter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "adaptive/convergence.h"
#include "adaptive/mutator.h"
#include "engine/engine.h"
#include "plan/builder.h"
#include "exec/compare.h"
#include "workload/skew.h"
#include "workload/tpch.h"

namespace apq {
namespace {

// ---------------------------------------------------------------------------
// Result preservation across random mutation sequences, per query and seed.
// ---------------------------------------------------------------------------

using QuerySeed = std::tuple<std::string, int>;

class MutationFuzzTest : public ::testing::TestWithParam<QuerySeed> {};

TEST_P(MutationFuzzTest, RandomMutationSequencePreservesResult) {
  auto [query, seed] = GetParam();
  TpchConfig cfg;
  cfg.lineitem_rows = 12'000;
  cfg.seed = 7 + seed;
  auto cat = Tpch::Generate(cfg);
  auto serial = Tpch::Query(*cat, query);
  ASSERT_TRUE(serial.ok());

  Evaluator eval;
  EvalResult er;
  ASSERT_TRUE(eval.Execute(serial.ValueOrDie(), &er).ok());
  Intermediate expect = er.result;

  MutatorConfig mcfg;
  mcfg.min_partition_rows = 32;
  Mutator mutator(mcfg);
  Rng rng(1000 + seed);
  QueryPlan plan = serial.ValueOrDie().Clone();
  for (int step = 0; step < 10; ++step) {
    // Synthetic profile: random node is "most expensive".
    auto topo = plan.TopologicalOrder();
    ASSERT_TRUE(topo.ok());
    const auto& order = topo.ValueOrDie();
    RunProfile profile;
    double t = 0;
    int hot = order[rng.Uniform(order.size())];
    for (int id : order) {
      OpProfile op;
      op.node_id = id;
      op.kind = plan.node(id).kind;
      op.start_ns = t;
      op.end_ns = t + (id == hot ? 1e6 : 1e3 + rng.Uniform(100));
      t = op.end_ns;
      profile.ops.push_back(op);
    }
    MutationReport report;
    auto mutated = mutator.MutateMostExpensive(plan, profile, &report);
    ASSERT_TRUE(mutated.ok());
    plan = mutated.MoveValueOrDie();
    ASSERT_TRUE(plan.Validate().ok()) << query << " step " << step;
    EvalResult er2;
    ASSERT_TRUE(eval.Execute(plan, &er2).ok()) << query << " step " << step;
    ASSERT_TRUE(IntermediatesEqual(expect, er2.result, 1e-6))
        << query << " seed " << seed << " step " << step << ": "
        << DiffIntermediates(expect, er2.result, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueriesBySeeds, MutationFuzzTest,
    ::testing::Combine(::testing::Values("Q6", "Q14", "Q8", "Q19", "Q4"),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Partition tiling: reachable leaf slices of an adapted plan tile the column.
// ---------------------------------------------------------------------------

class PartitionTilingTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionTilingTest, ReachableSlicesTileTheBaseColumn) {
  SkewConfig scfg;
  scfg.rows = 40'000;
  scfg.seed = 13 + GetParam();
  auto cat = GenerateSkewed(scfg);
  SimConfig sim = SimConfig::Cores(8, 8);
  sim.seed = 100 + GetParam();
  sim.noise_sigma = 0.05;
  Engine engine(EngineConfig::WithSim(sim));
  auto plan = SkewedSelectPlan(*cat, scfg, 10 * (1 + GetParam() % 5));
  ASSERT_TRUE(plan.ok());
  auto ap = engine.RunAdaptive(plan.ValueOrDie());
  ASSERT_TRUE(ap.ok());
  const QueryPlan& gme = ap.ValueOrDie().gme_plan;

  auto topo = gme.TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  std::vector<RowRange> slices;
  int unsliced_selects = 0;
  for (int id : topo.ValueOrDie()) {
    const PlanNode& n = gme.node(id);
    if (n.kind != OpKind::kSelect) continue;
    if (n.has_slice) slices.push_back(n.slice);
    else ++unsliced_selects;
  }
  if (slices.empty()) {
    // Never split: the single unsliced select covers everything.
    EXPECT_EQ(unsliced_selects, 1);
    return;
  }
  EXPECT_EQ(unsliced_selects, 0);
  std::sort(slices.begin(), slices.end(),
            [](const RowRange& a, const RowRange& b) { return a.begin < b.begin; });
  // No omission, no repetition: consecutive slices abut exactly (Fig 8's
  // alignment-on-the-base-column invariant).
  EXPECT_EQ(slices.front().begin, 0u);
  EXPECT_EQ(slices.back().end, scfg.rows);
  for (size_t i = 1; i < slices.size(); ++i) {
    EXPECT_EQ(slices[i].begin, slices[i - 1].end)
        << "gap or overlap at slice " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionTilingTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Union ordering: packed row ids stay sorted (base-table order).
// ---------------------------------------------------------------------------

class UnionOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(UnionOrderTest, PackedRowIdsStaySorted) {
  int ways = 2 + GetParam();
  Rng rng(50 + ways);
  std::vector<int64_t> vals(20'000);
  for (auto& v : vals) v = rng.UniformRange(0, 99);
  auto col = Column::MakeInt64("c", std::move(vals));
  PlanBuilder b("t");
  int sel = b.Select(col.get(), Predicate::RangeI64(0, 49));
  QueryPlan plan = b.Result(sel);
  MutatorConfig mcfg;
  mcfg.min_partition_rows = 8;
  Mutator m(mcfg);
  ASSERT_TRUE(m.SplitNode(&plan, sel, ways).ok());
  Evaluator eval;
  EvalResult er;
  ASSERT_TRUE(eval.Execute(plan, &er).ok());
  const auto& ids = er.result.rowids;
  for (size_t i = 1; i < ids.size(); ++i) {
    ASSERT_LT(ids[i - 1], ids[i]) << "order violated at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ways, UnionOrderTest, ::testing::Range(0, 7));

// ---------------------------------------------------------------------------
// Narrowing: sliced consumers of random candidate lists.
// ---------------------------------------------------------------------------

// Byte-level equality (floats compared bit for bit), including the flag.
std::string ByteDiff(const Intermediate& a, const Intermediate& b) {
  if (a.kind != b.kind) return "kind";
  if (!(a.origin == b.origin)) return "origin";
  if (a.ascending != b.ascending) return "ascending flag";
  if (a.rowids != b.rowids) return "rowids";
  if (a.rrowids != b.rrowids) return "rrowids";
  if (a.head != b.head) return "head";
  if (a.values.type != b.values.type || a.values.i64 != b.values.i64) {
    return "int values";
  }
  if (a.values.f64.size() != b.values.f64.size() ||
      (!a.values.f64.empty() &&
       std::memcmp(a.values.f64.data(), b.values.f64.data(),
                   a.values.f64.size() * sizeof(double)) != 0)) {
    return "float values";
  }
  return "";
}

class NarrowingFuzzTest : public ::testing::TestWithParam<int> {};

// Random candidate lists — a union of sliced selects over random cut points,
// sometimes overlapping (duplicate ids), sometimes out of order (flag off) —
// feed a random sliced select, fetch-join (kAdjust or kStrict), join over
// row ids or sort over row ids. The scalar interpreter clips id by id; the
// kernels, whole-column and morselized, must give the same bytes, the same
// error, and the same cost-model metrics.
TEST_P(NarrowingFuzzTest, SlicedConsumersMatchScalarInterpreter) {
  Rng rng(900 + GetParam());
  for (int round = 0; round < 20; ++round) {
    const uint64_t n = 1 + rng.Uniform(4000);
    std::vector<int64_t> sel(n), fk(n);
    std::vector<double> vals(n);
    for (uint64_t i = 0; i < n; ++i) {
      sel[i] = rng.UniformRange(0, 99);
      fk[i] = rng.UniformRange(0, 19);
      vals[i] = rng.NextDouble();
    }
    auto sel_col = Column::MakeInt64("sel", std::move(sel));
    auto fk_col = Column::MakeInt64("fk", std::move(fk));
    auto val_col = Column::MakeFloat64("vals", std::move(vals));
    std::vector<int64_t> pk(25);
    for (size_t i = 0; i < pk.size(); ++i) pk[i] = static_cast<int64_t>(i % 20);
    auto pk_col = Column::MakeInt64("pk", std::move(pk));

    PlanBuilder b("narrow-fuzz");
    const Predicate pred = Predicate::RangeI64(0, rng.UniformRange(0, 99));
    const int pieces = 1 + static_cast<int>(rng.Uniform(4));
    std::vector<uint64_t> cuts = {0, n};
    for (int i = 1; i < pieces; ++i) cuts.push_back(rng.Uniform(n + 1));
    std::sort(cuts.begin(), cuts.end());
    std::vector<int> inputs;
    for (int i = 0; i < pieces; ++i) {
      RowRange r{cuts[i], cuts[i + 1]};
      if (rng.Uniform(4) == 0) r.end = std::min<uint64_t>(n, r.end + 50);
      const int s = b.Select(sel_col.get(), pred);
      b.plan().node(s).has_slice = true;
      b.plan().node(s).slice = r;
      inputs.push_back(s);
    }
    if (rng.Uniform(3) == 0) std::reverse(inputs.begin(), inputs.end());
    int cand = inputs[0];
    int uni = -1;
    if (pieces > 1) {
      PlanNode u;
      u.kind = OpKind::kExchangeUnion;
      u.inputs = inputs;
      uni = cand = b.plan().AddNode(std::move(u));
    }

    const int what = static_cast<int>(rng.Uniform(5));
    int c = -1;
    switch (what) {
      case 0:
        c = b.Select(val_col.get(), Predicate::RangeF64(0.2, 0.7), cand);
        break;
      case 1:
      case 2:
        c = b.FetchJoin(val_col.get(), cand);
        b.plan().node(c).align =
            what == 1 ? AlignPolicy::kAdjust : AlignPolicy::kStrict;
        break;
      case 3:
        c = b.Join(cand, pk_col.get());
        b.plan().node(c).column = fk_col.get();
        break;
      default:
        c = b.Sort(cand);
        b.plan().node(c).column = val_col.get();
        break;
    }
    RowRange slice{rng.Uniform(n + 1), 0};
    switch (rng.Uniform(4)) {
      case 0: slice.end = slice.begin; break;  // empty
      case 1: slice.end = n; break;            // ends at the column end
      default: slice.end = slice.begin + rng.Uniform(n - slice.begin + 1);
    }
    b.plan().node(c).has_slice = rng.Uniform(8) != 0;
    b.plan().node(c).slice = slice;
    QueryPlan plan = b.Result(c);
    ASSERT_TRUE(plan.Validate().ok());
    const std::string at = "seed " + std::to_string(GetParam()) + " round " +
                           std::to_string(round) + " consumer " +
                           std::to_string(what) + " slice " + slice.ToString();

    ExecOptions so;
    so.use_kernels = false;
    Evaluator scalar(so);
    EvalResult ref;
    const Status want = scalar.Execute(plan, &ref);
    if (want.ok() && uni >= 0) {
      // Over ascending inputs the union's flag is exact.
      const Intermediate& packed = ref.intermediates.at(uni);
      EXPECT_EQ(packed.ascending,
                std::is_sorted(packed.rowids.begin(), packed.rowids.end()))
          << at;
    }

    std::vector<ExecOptions> tiers(1);
    for (int workers : {1, 2, 4}) {
      ExecOptions o;
      o.use_morsels = true;
      o.morsel_rows = 512;
      o.morsel_workers = workers;
      tiers.push_back(o);
    }
    for (const ExecOptions& o : tiers) {
      Evaluator eval(o);
      EvalResult got;
      const Status st = eval.Execute(plan, &got);
      ASSERT_EQ(st.ok(), want.ok()) << at << ": " << st.ToString();
      if (!want.ok()) {
        EXPECT_EQ(st.code(), want.code()) << at;
        EXPECT_EQ(st.message(), want.message()) << at;
        continue;
      }
      EXPECT_EQ(ByteDiff(ref.result, got.result), "") << at;
      ASSERT_EQ(got.metrics.size(), ref.metrics.size());
      for (size_t i = 0; i < ref.metrics.size(); ++i) {
        EXPECT_EQ(got.metrics[i].tuples_in, ref.metrics[i].tuples_in) << at;
        EXPECT_EQ(got.metrics[i].random_accesses,
                  ref.metrics[i].random_accesses)
            << at;
        EXPECT_EQ(got.metrics[i].bytes_in, ref.metrics[i].bytes_in) << at;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NarrowingFuzzTest, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Convergence termination across random execution-time landscapes.
// ---------------------------------------------------------------------------

class ConvergenceTerminationTest : public ::testing::TestWithParam<int> {};

// A realistic adaptation landscape (the paper's §3.3 assumption): a steep
// initial descent, then a mostly stable plateau with small variations and
// rare spikes. The leaking debit must terminate this within the analytical
// bounds.
TEST_P(ConvergenceTerminationTest, CalmLandscapeTerminatesWithinBounds) {
  Rng rng(31 + GetParam());
  ConvergenceParams p;
  p.cores = 4 + static_cast<int>(rng.Uniform(60));
  p.extra_runs = 2 + static_cast<int>(rng.Uniform(14));
  p.max_runs = 10'000;  // effectively disabled: the leak must terminate us
  ConvergenceController c(p);
  double serial = 1000.0;
  double floor = 40.0;
  double t = serial;
  bool cont = c.Observe(serial);
  int runs = 1;
  while (cont) {
    ASSERT_LT(runs, 9'000) << "did not terminate";
    if (t > floor * 1.5) t *= 0.75;                     // descent phase
    else t = floor * (1.0 + 0.04 * rng.NextDouble());   // stable plateau
    if (rng.NextDouble() < 0.01) t = serial * 1.5;      // rare spike
    cont = c.Observe(t);
    ++runs;
  }
  // Upper bound plus slack for peak-grace extensions and credit growth.
  EXPECT_LE(runs, c.UpperBound() * 3 + 10);
  // GME is never worse than every observed run (it is one of them).
  double raw_min = 1e300;
  for (size_t i = 1; i < c.times().size(); ++i) {
    raw_min = std::min(raw_min, c.times()[i]);
  }
  EXPECT_GE(c.gme(), raw_min - 1e-9);
  EXPECT_LE(c.gme(), serial * 10);
}

// An adversarial landscape with sustained multiplicative oscillation defeats
// the leaking debit: ROI is asymmetric (a drop by factor f credits 1-f, the
// matching climb debits only (1/f-1)*f), so credit inflow can outpace the
// constant leak indefinitely. The paper's termination argument (§3.3.2)
// assumes "execution time variations are minimal"; the hard max_runs cap is
// the backstop this repository relies on (documented in DESIGN.md).
TEST_P(ConvergenceTerminationTest, AdversarialLandscapeStoppedByMaxRuns) {
  Rng rng(61 + GetParam());
  ConvergenceParams p;
  p.cores = 8 + static_cast<int>(rng.Uniform(32));
  p.max_runs = 500;
  ConvergenceController c(p);
  double serial = 1000.0;
  double t = serial;
  bool cont = c.Observe(serial);
  int runs = 1;
  while (cont) {
    ASSERT_LE(runs, p.max_runs) << "max_runs cap violated";
    double r = rng.NextDouble();
    if (r < 0.5) t *= 0.7 + 0.3 * rng.NextDouble();        // improve
    else if (r < 0.8) t *= 0.98 + 0.04 * rng.NextDouble(); // plateau
    else t *= 1.0 + 0.3 * rng.NextDouble();                // up-hill
    if (t < 1.0) t = 1.0;
    cont = c.Observe(t);
    ++runs;
  }
  EXPECT_LE(runs, p.max_runs);
}

INSTANTIATE_TEST_SUITE_P(Landscapes, ConvergenceTerminationTest,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Adaptive vs heuristic vs serial agreement across engines and machine sizes.
// ---------------------------------------------------------------------------

class CrossStrategyAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CrossStrategyAgreementTest, AllStrategiesAgree) {
  auto [cores, seed] = GetParam();
  TpchConfig cfg;
  cfg.lineitem_rows = 15'000;
  cfg.seed = 7 + seed;
  auto cat = Tpch::Generate(cfg);
  EngineConfig ecfg = EngineConfig::WithSim(
      SimConfig::Cores(cores, std::max(1, cores / 2)));
  ecfg.verify_results = true;
  Engine engine(ecfg);
  auto q = Tpch::Q14(*cat);
  ASSERT_TRUE(q.ok());
  auto serial = engine.RunSerial(q.ValueOrDie());
  ASSERT_TRUE(serial.ok());
  auto hp = engine.RunHeuristic(q.ValueOrDie());
  ASSERT_TRUE(hp.ok());
  auto ap = engine.RunAdaptive(q.ValueOrDie());
  ASSERT_TRUE(ap.ok()) << ap.status().ToString();
  EXPECT_TRUE(IntermediatesEqual(serial.ValueOrDie().result,
                                 hp.ValueOrDie().result, 1e-6));
  EXPECT_TRUE(IntermediatesEqual(serial.ValueOrDie().result,
                                 ap.ValueOrDie().result, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    CoresBySeeds, CrossStrategyAgreementTest,
    ::testing::Combine(::testing::Values(2, 8, 32), ::testing::Values(0, 1)),
    [](const auto& info) {
      return "cores" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace apq
