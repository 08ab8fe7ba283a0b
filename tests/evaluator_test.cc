// Unit tests for every physical operator in the evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "exec/evaluator.h"
#include "plan/builder.h"
#include "util/rng.h"

namespace apq {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ints_ = Column::MakeInt64("ints", {5, 1, 7, 3, 9, 2, 8, 4, 6, 0});
    floats_ = Column::MakeFloat64(
        "floats", {0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5});
    strs_ = Column::MakeString("strs", {"PROMO A", "PLAIN B", "PROMO C",
                                        "PLAIN D", "PROMO E", "PLAIN F",
                                        "PROMO G", "PLAIN H", "PROMO I",
                                        "PLAIN J"});
    fk_ = Column::MakeInt64("fk", {0, 1, 2, 0, 1, 2, 0, 1, 2, 0});
    pk_ = Column::MakeInt64("pk", {0, 1, 2});
    dim_ = Column::MakeFloat64("dimval", {10.0, 20.0, 30.0});
  }

  Intermediate Run(QueryPlan plan) {
    EvalResult er;
    Status st = eval_.Execute(plan, &er);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return er.result;
  }

  ColumnPtr ints_, floats_, strs_, fk_, pk_, dim_;
  Evaluator eval_;
};

TEST_F(EvaluatorTest, SelectRange) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(3, 7));
  Intermediate r = Run(b.Result(sel));
  ASSERT_EQ(r.kind, Intermediate::Kind::kRowIds);
  EXPECT_EQ(r.rowids, (std::vector<oid>{0, 2, 3, 7, 8}));  // 5,7,3,4,6
  EXPECT_EQ(r.origin, (RowRange{0, 10}));
}

TEST_F(EvaluatorTest, SelectEquality) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::EqI64(9));
  Intermediate r = Run(b.Result(sel));
  EXPECT_EQ(r.rowids, (std::vector<oid>{4}));
}

TEST_F(EvaluatorTest, SelectFloatRange) {
  PlanBuilder b("t");
  int sel = b.Select(floats_.get(), Predicate::RangeF64(2.0, 4.0));
  Intermediate r = Run(b.Result(sel));
  EXPECT_EQ(r.rowids, (std::vector<oid>{2, 3}));  // 2.5, 3.5
}

TEST_F(EvaluatorTest, SelectLike) {
  PlanBuilder b("t");
  int sel = b.Select(strs_.get(), Predicate::Like("PROMO"));
  Intermediate r = Run(b.Result(sel));
  EXPECT_EQ(r.rowids, (std::vector<oid>{0, 2, 4, 6, 8}));
}

TEST_F(EvaluatorTest, SelectLikeAnti) {
  PlanBuilder b("t");
  int sel = b.Select(strs_.get(), Predicate::Like("PROMO", /*anti=*/true));
  Intermediate r = Run(b.Result(sel));
  EXPECT_EQ(r.rowids, (std::vector<oid>{1, 3, 5, 7, 9}));
}

TEST_F(EvaluatorTest, SelectWithCandidates) {
  PlanBuilder b("t");
  int s1 = b.Select(ints_.get(), Predicate::RangeI64(3, 9));
  int s2 = b.Select(floats_.get(), Predicate::RangeF64(0.0, 4.9), s1);
  Intermediate r = Run(b.Result(s2));
  // s1 -> rows {0,2,3,4,7,8}; floats at those rows: .5,2.5,3.5,4.5,7.5,8.5.
  EXPECT_EQ(r.rowids, (std::vector<oid>{0, 2, 3, 4}));
}

TEST_F(EvaluatorTest, SelectLikeOnNonStringFails) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::Like("x"));
  QueryPlan plan = b.Result(sel);
  EvalResult er;
  Status st = eval_.Execute(plan, &er);
  EXPECT_FALSE(st.ok());
}

TEST_F(EvaluatorTest, FetchJoinGathersValues) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(7, 9));
  int f = b.FetchJoin(floats_.get(), sel);
  Intermediate r = Run(b.Result(f));
  ASSERT_EQ(r.kind, Intermediate::Kind::kValues);
  // matches rows {2,4,6} -> floats 2.5, 4.5, 6.5
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_DOUBLE_EQ(r.values.f64[0], 2.5);
  EXPECT_DOUBLE_EQ(r.values.f64[2], 6.5);
  EXPECT_EQ(r.head, (std::vector<oid>{2, 4, 6}));
}

TEST_F(EvaluatorTest, FetchJoinSliceClipsUnderAdjustPolicy) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));  // all rows
  int f = b.FetchJoin(floats_.get(), sel);
  QueryPlan plan = b.Result(f);
  // Restrict the fetch to rows [3, 6): out-of-slice candidates clip away.
  for (int i = 0; i < plan.num_nodes(); ++i) {
    if (plan.node(i).kind == OpKind::kFetchJoin) {
      plan.node(i).has_slice = true;
      plan.node(i).slice = {3, 6};
      plan.node(i).align = AlignPolicy::kAdjust;
    }
  }
  EvalResult er;
  ASSERT_TRUE(eval_.Execute(plan, &er).ok());
  EXPECT_EQ(er.result.head, (std::vector<oid>{3, 4, 5}));
}

TEST_F(EvaluatorTest, FetchJoinStrictPolicyReportsMisalignment) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int f = b.FetchJoin(floats_.get(), sel);
  QueryPlan plan = b.Result(f);
  for (int i = 0; i < plan.num_nodes(); ++i) {
    if (plan.node(i).kind == OpKind::kFetchJoin) {
      plan.node(i).has_slice = true;
      plan.node(i).slice = {3, 6};
      plan.node(i).align = AlignPolicy::kStrict;
    }
  }
  EvalResult er;
  Status st = eval_.Execute(plan, &er);
  EXPECT_EQ(st.code(), StatusCode::kMisaligned);
}

TEST_F(EvaluatorTest, JoinLeafProbesAllRows) {
  PlanBuilder b("t");
  int jn = b.JoinLeaf(fk_.get(), pk_.get());
  Intermediate r = Run(b.Result(jn));
  ASSERT_EQ(r.kind, Intermediate::Kind::kPairs);
  ASSERT_EQ(r.rowids.size(), 10u);  // FK join preserves cardinality
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(r.rowids[i], i);  // outer row order preserved
    EXPECT_EQ(static_cast<int64_t>(r.rrowids[i]), fk_->i64()[i]);
  }
}

TEST_F(EvaluatorTest, JoinOverFetchedValues) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(5, 9));
  int fpk = b.FetchJoin(fk_.get(), sel);
  int jn = b.Join(fpk, pk_.get());
  Intermediate r = Run(b.Result(jn));
  // matches rows {0,2,4,6,8} with fk values {0,2,1,0,2}.
  ASSERT_EQ(r.rowids.size(), 5u);
  EXPECT_EQ(r.rowids, (std::vector<oid>{0, 2, 4, 6, 8}));
  EXPECT_EQ(r.rrowids, (std::vector<oid>{0, 2, 1, 0, 2}));
}

TEST_F(EvaluatorTest, JoinDuplicateInnerMatches) {
  auto inner = Column::MakeInt64("dup", {7, 7, 8});
  auto outer = Column::MakeInt64("o", {7, 8});
  PlanBuilder b("t");
  int jn = b.JoinLeaf(outer.get(), inner.get());
  Intermediate r = Run(b.Result(jn));
  ASSERT_EQ(r.rowids.size(), 3u);  // 7 matches twice, 8 once
  EXPECT_EQ(r.rowids, (std::vector<oid>{0, 0, 1}));
}

TEST_F(EvaluatorTest, FetchJoinFromPairsBothSides) {
  PlanBuilder b("t");
  int jn = b.JoinLeaf(fk_.get(), pk_.get());
  int fl = b.FetchJoin(floats_.get(), jn, FetchSide::kLeft);
  int fr = b.FetchJoin(dim_.get(), jn, FetchSide::kRight);
  int sum = b.Map2(MapFn::kAdd, fl, fr);
  Intermediate r = Run(b.Result(sum));
  ASSERT_EQ(r.values.size(), 10u);
  // Row 0: float 0.5 + dim[fk=0]=10 -> 10.5.
  EXPECT_DOUBLE_EQ(r.values.f64[0], 10.5);
  // Row 5: float 5.5 + dim[fk=2]=30 -> 35.5.
  EXPECT_DOUBLE_EQ(r.values.f64[5], 35.5);
}

TEST_F(EvaluatorTest, GroupByAndGroupedSum) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int keys = b.FetchJoin(fk_.get(), sel);
  int vals = b.FetchJoin(floats_.get(), sel);
  int gb = b.GroupBy(keys);
  int ag = b.AggGrouped(AggFn::kSum, gb, vals);
  Intermediate r = Run(b.Result(ag));
  ASSERT_EQ(r.kind, Intermediate::Kind::kGroupedAgg);
  ASSERT_EQ(r.agg_vals.size(), 3u);
  // Key 0 at rows 0,3,6,9: 0.5+3.5+6.5+9.5 = 20.
  for (size_t g = 0; g < 3; ++g) {
    if (r.group_keys.AsInt(g) == 0) {
      EXPECT_DOUBLE_EQ(r.agg_vals[g], 20.0);
    }
    if (r.group_keys.AsInt(g) == 1) {
      EXPECT_DOUBLE_EQ(r.agg_vals[g], 13.5);
    }
    if (r.group_keys.AsInt(g) == 2) {
      EXPECT_DOUBLE_EQ(r.agg_vals[g], 16.5);
    }
  }
}

TEST_F(EvaluatorTest, GroupedCountAvgMinMax) {
  auto run_agg = [&](AggFn fn, bool with_vals) {
    PlanBuilder b("t");
    int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
    int keys = b.FetchJoin(fk_.get(), sel);
    int vals = b.FetchJoin(floats_.get(), sel);
    int gb = b.GroupBy(keys);
    int ag = b.AggGrouped(fn, gb, with_vals ? vals : -1);
    return Run(b.Result(ag));
  };
  Intermediate c = run_agg(AggFn::kCount, false);
  Intermediate a = run_agg(AggFn::kAvg, true);
  Intermediate lo = run_agg(AggFn::kMin, true);
  Intermediate hi = run_agg(AggFn::kMax, true);
  for (size_t g = 0; g < 3; ++g) {
    if (c.group_keys.AsInt(g) == 0) {
      EXPECT_DOUBLE_EQ(c.agg_vals[g], 4.0);
    }
    if (a.group_keys.AsInt(g) == 0) {
      EXPECT_DOUBLE_EQ(a.agg_vals[g], 5.0);
    }
    if (lo.group_keys.AsInt(g) == 0) {
      EXPECT_DOUBLE_EQ(lo.agg_vals[g], 0.5);
    }
    if (hi.group_keys.AsInt(g) == 0) {
      EXPECT_DOUBLE_EQ(hi.agg_vals[g], 9.5);
    }
  }
}

TEST_F(EvaluatorTest, ScalarAggregates) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(floats_.get(), sel);
  int sum = b.AggScalar(AggFn::kSum, vals);
  QueryPlan plan = b.Result(sum);
  EvalResult er;
  ASSERT_TRUE(eval_.Execute(plan, &er).ok());
  EXPECT_DOUBLE_EQ(er.result.scalar, 50.0);
  EXPECT_EQ(er.result.scalar_count, 10);
}

TEST_F(EvaluatorTest, ScalarCountOverRowIds) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(5, 9));
  int cnt = b.AggScalar(AggFn::kCount, sel);
  Intermediate r = Run(b.Result(cnt));
  EXPECT_DOUBLE_EQ(r.scalar, 5.0);
}

TEST_F(EvaluatorTest, MapArithmetic) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(floats_.get(), sel);
  int x2 = b.MapConst(MapFn::kMul, vals, 2.0);
  int inv = b.MapConst(MapFn::kRSub, vals, 1.0);  // 1 - v
  int sum = b.Map2(MapFn::kAdd, x2, inv);         // 2v + 1 - v = v + 1
  Intermediate r = Run(b.Result(sum));
  for (uint64_t i = 0; i < r.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.values.f64[i], floats_->f64()[i] + 1.0);
  }
}

TEST_F(EvaluatorTest, MapFlags) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int svals = b.FetchJoin(strs_.get(), sel);
  int flag = b.LikeFlag(svals, "PROMO");
  Intermediate r = Run(b.Result(flag));
  for (uint64_t i = 0; i < r.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.values.f64[i], i % 2 == 0 ? 1.0 : 0.0);
  }
}

TEST_F(EvaluatorTest, MapEqAndRangeFlags) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(ints_.get(), sel);
  int eq = b.EqFlag(vals, 7);
  int rg = b.RangeFlag(vals, 3, 5);
  QueryPlan plan = b.Result(eq);
  EvalResult er;
  ASSERT_TRUE(eval_.Execute(plan, &er).ok());
  const Intermediate& e = er.intermediates.at(eq);
  EXPECT_DOUBLE_EQ(e.values.f64[2], 1.0);  // ints[2] == 7
  EXPECT_DOUBLE_EQ(e.values.f64[0], 0.0);
  // Range flag needs to be reachable to be evaluated; re-run with rg result.
  PlanBuilder b2("t2");
  int sel2 = b2.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals2 = b2.FetchJoin(ints_.get(), sel2);
  int rg2 = b2.RangeFlag(vals2, 3, 5);
  Intermediate r = Run(b2.Result(rg2));
  EXPECT_DOUBLE_EQ(r.values.f64[0], 1.0);  // 5 in [3,5]
  EXPECT_DOUBLE_EQ(r.values.f64[2], 0.0);  // 7 not
  (void)rg;
}

TEST_F(EvaluatorTest, ScalarMapDivision) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(floats_.get(), sel);
  int s1 = b.AggScalar(AggFn::kSum, vals);
  int s2 = b.AggScalar(AggFn::kCount, vals);
  int ratio = b.Map2(MapFn::kDiv, s1, s2);
  Intermediate r = Run(b.Result(ratio));
  EXPECT_DOUBLE_EQ(r.scalar, 5.0);  // 50 / 10
}

TEST_F(EvaluatorTest, SortValuesAscendingDescending) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(ints_.get(), sel);
  int srt = b.Sort(vals);
  Intermediate r = Run(b.Result(srt));
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(r.values.i64[i], static_cast<int64_t>(i));
  }
  PlanBuilder b2("t2");
  int sel2 = b2.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals2 = b2.FetchJoin(ints_.get(), sel2);
  int srt2 = b2.Sort(vals2, /*descending=*/true);
  Intermediate r2 = Run(b2.Result(srt2));
  EXPECT_EQ(r2.values.i64[0], 9);
  EXPECT_EQ(r2.values.i64[9], 0);
}

TEST_F(EvaluatorTest, TopNLimits) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(ints_.get(), sel);
  int top = b.TopN(vals, 3, /*descending=*/true);
  Intermediate r = Run(b.Result(top));
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_EQ(r.values.i64[0], 9);
  EXPECT_EQ(r.values.i64[2], 7);
}

TEST_F(EvaluatorTest, SortGroupedAggregates) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int keys = b.FetchJoin(fk_.get(), sel);
  int vals = b.FetchJoin(floats_.get(), sel);
  int gb = b.GroupBy(keys);
  int ag = b.AggGrouped(AggFn::kSum, gb, vals);
  int srt = b.Sort(ag, /*descending=*/true);
  Intermediate r = Run(b.Result(srt));
  ASSERT_EQ(r.agg_vals.size(), 3u);
  EXPECT_GE(r.agg_vals[0], r.agg_vals[1]);
  EXPECT_GE(r.agg_vals[1], r.agg_vals[2]);
  EXPECT_DOUBLE_EQ(r.agg_vals[0], 20.0);  // key 0
}

TEST_F(EvaluatorTest, HashIndexIsCachedAcrossExecutions) {
  PlanBuilder b("t");
  int jn = b.JoinLeaf(fk_.get(), pk_.get());
  QueryPlan plan = b.Result(jn);
  EvalResult er1, er2;
  ASSERT_TRUE(eval_.Execute(plan, &er1).ok());
  ASSERT_TRUE(eval_.Execute(plan, &er2).ok());
  uint64_t build1 = 0, build2 = 0;
  for (const auto& m : er1.metrics) build1 += m.hash_build_rows;
  for (const auto& m : er2.metrics) build2 += m.hash_build_rows;
  EXPECT_GT(build1, 0u);
  EXPECT_EQ(build2, 0u);  // second run reuses the cached index
}

TEST_F(EvaluatorTest, MisalignedBinaryMapIsAnError) {
  PlanBuilder b("t");
  int s1 = b.Select(ints_.get(), Predicate::RangeI64(0, 4));
  int s2 = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int v1 = b.FetchJoin(floats_.get(), s1);
  int v2 = b.FetchJoin(floats_.get(), s2);
  int mp = b.Map2(MapFn::kAdd, v1, v2);
  QueryPlan plan = b.Result(mp);
  EvalResult er;
  Status st = eval_.Execute(plan, &er);
  EXPECT_EQ(st.code(), StatusCode::kMisaligned);
}

// ---- sliced clones over sorted candidate lists ----------------------------
// A sliced clone whose candidate list is flagged ascending narrows it to its
// slice by binary search; unflagged lists and the scalar interpreter clip id
// by id. Every shape must reproduce the scalar interpreter's bytes and
// metrics, whole-column and morselized.

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

const OpMetrics* MetricsOf(const EvalResult& er, int node_id) {
  for (const auto& m : er.metrics) {
    if (m.node_id == node_id) return &m;
  }
  return nullptr;
}

enum class Consumer { kSelect, kFetchAdjust, kFetchStrict, kJoin, kSort };

class NarrowingTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 5000;

  void SetUp() override {
    Rng rng(17);
    std::vector<int64_t> sel(kRows), fk(kRows);
    std::vector<double> vals(kRows);
    for (uint64_t i = 0; i < kRows; ++i) {
      // Rows [1000, 1500) never pass the select: a slice with no candidates.
      sel[i] = i >= 1000 && i < 1500 ? 999 : rng.UniformRange(0, 599);
      fk[i] = rng.UniformRange(0, 49);
      vals[i] = rng.NextDouble() * 100.0;
    }
    sel[2000] = 0;  // the duplicated id of the union case passes
    sel_ = Column::MakeInt64("sel", std::move(sel));
    fk_ = Column::MakeInt64("fk", std::move(fk));
    vals_ = Column::MakeFloat64("vals", std::move(vals));
    // Inner keys 0..49, keys 0..9 twice: probes with several matches.
    std::vector<int64_t> pk(60);
    for (size_t i = 0; i < pk.size(); ++i) pk[i] = static_cast<int64_t>(i % 50);
    pk_ = Column::MakeInt64("pk", std::move(pk));
    // Longer than the others: its row ids run past their end.
    wide_ = Column::MakeInt64("wide", std::vector<int64_t>(kRows + 1000, 0));
  }

  // A select over `col` restricted to `slice` (whole column when empty).
  static int SelectOver(PlanBuilder* b, const Column* col, RowRange slice,
                        int64_t hi = 399) {
    const int s = b->Select(col, Predicate::RangeI64(0, hi));
    if (slice.size() > 0) {
      b->plan().node(s).has_slice = true;
      b->plan().node(s).slice = slice;
    }
    return s;
  }

  static int Union(PlanBuilder* b, std::vector<int> inputs) {
    PlanNode u;
    u.kind = OpKind::kExchangeUnion;
    u.inputs = std::move(inputs);
    return b->plan().AddNode(std::move(u));
  }

  // Appends `what` over candidate list `cand`, sliced to `slice` when
  // `sliced`, and finishes the plan. Returns the consumer's node id.
  int AddConsumer(PlanBuilder* b, Consumer what, int cand, bool sliced,
                  RowRange slice) {
    int c = -1;
    switch (what) {
      case Consumer::kSelect:
        c = b->Select(vals_.get(), Predicate::RangeF64(10.0, 80.0), cand);
        break;
      case Consumer::kFetchAdjust:
      case Consumer::kFetchStrict:
        c = b->FetchJoin(vals_.get(), cand);
        b->plan().node(c).align = what == Consumer::kFetchStrict
                                      ? AlignPolicy::kStrict
                                      : AlignPolicy::kAdjust;
        break;
      case Consumer::kJoin:
        c = b->Join(cand, pk_.get());
        b->plan().node(c).column = fk_.get();
        break;
      case Consumer::kSort:
        c = b->Sort(cand);
        b->plan().node(c).column = vals_.get();
        break;
    }
    b->plan().node(c).has_slice = sliced;
    b->plan().node(c).slice = slice;
    return c;
  }

  // Scalar interpreter (the clip-path oracle) vs kernels whole-column and
  // morselized at 512-row morsels over 1, 2 and 4 workers.
  static std::vector<ExecOptions> Tiers() {
    std::vector<ExecOptions> tiers(1);
    for (int workers : {1, 2, 4}) {
      ExecOptions o;
      o.use_morsels = true;
      o.morsel_rows = 512;
      o.morsel_workers = workers;
      tiers.push_back(o);
    }
    return tiers;
  }

  static void ExpectMatchesScalar(const QueryPlan& plan, int consumer,
                                  const std::string& what) {
    ExecOptions so;
    so.use_kernels = false;
    Evaluator scalar(so);
    EvalResult ref;
    ASSERT_TRUE(scalar.Execute(plan, &ref).ok()) << what;
    const OpMetrics* rm = MetricsOf(ref, consumer);
    ASSERT_NE(rm, nullptr);
    for (const ExecOptions& o : Tiers()) {
      const std::string at = what + " morsels=" +
                             std::to_string(o.use_morsels) + " workers=" +
                             std::to_string(o.morsel_workers);
      Evaluator eval(o);
      EvalResult got;
      ASSERT_TRUE(eval.Execute(plan, &got).ok()) << at;
      EXPECT_EQ(ByteDiff(ref.result, got.result), "") << at;
      const OpMetrics* gm = MetricsOf(got, consumer);
      ASSERT_NE(gm, nullptr);
      // The cost model must not see the narrowing: it still charges the
      // whole candidate list scanned.
      EXPECT_EQ(gm->tuples_in, rm->tuples_in) << at;
      EXPECT_EQ(gm->tuples_out, rm->tuples_out) << at;
      EXPECT_EQ(gm->random_accesses, rm->random_accesses) << at;
      EXPECT_EQ(gm->bytes_in, rm->bytes_in) << at;
    }
  }

  static void ExpectSameError(const QueryPlan& plan, const std::string& what) {
    ExecOptions so;
    so.use_kernels = false;
    Evaluator scalar(so);
    EvalResult ref;
    const Status want = scalar.Execute(plan, &ref);
    ASSERT_EQ(want.code(), StatusCode::kMisaligned) << what;
    for (const ExecOptions& o : Tiers()) {
      Evaluator eval(o);
      EvalResult got;
      const Status st = eval.Execute(plan, &got);
      EXPECT_EQ(st.code(), want.code()) << what;
      EXPECT_EQ(st.message(), want.message()) << what;
    }
  }

  static constexpr Consumer kAll[] = {Consumer::kSelect, Consumer::kFetchAdjust,
                                      Consumer::kJoin, Consumer::kSort};
  static std::string Name(Consumer c) {
    switch (c) {
      case Consumer::kSelect: return "select";
      case Consumer::kFetchAdjust: return "fetchjoin";
      case Consumer::kFetchStrict: return "fetchjoin-strict";
      case Consumer::kJoin: return "join";
      case Consumer::kSort: return "sort";
    }
    return "?";
  }

  ColumnPtr sel_, fk_, vals_, pk_, wide_;
};

TEST_F(NarrowingTest, SlicedClonesOverADenseSelectMatchScalar) {
  const RowRange slices[] = {
      {1234, 3456},   // interior
      {2000, 2000},   // empty
      {1000, 1500},   // no candidates inside
      {3500, kRows},  // ends at the column end
      {0, kRows},     // the whole column
  };
  for (Consumer what : kAll) {
    for (const RowRange& slice : slices) {
      PlanBuilder b("narrow");
      const int cand = SelectOver(&b, sel_.get(), {});
      const int c = AddConsumer(&b, what, cand, /*sliced=*/true, slice);
      QueryPlan plan = b.Result(c);
      ASSERT_TRUE(plan.Validate().ok());
      ExpectMatchesScalar(plan, c, Name(what) + " " + slice.ToString());
    }
    PlanBuilder b("unsliced");
    const int c = AddConsumer(&b, what, SelectOver(&b, sel_.get(), {}),
                              /*sliced=*/false, RowRange{});
    ExpectMatchesScalar(b.Result(c), c, Name(what) + " unsliced");
  }
}

TEST_F(NarrowingTest, AbuttingUnionWithDuplicateIdsIsNarrowed) {
  // Three clones all keep row 2000: the union repeats it three times and is
  // still non-decreasing, so the flag holds and the binary search must land
  // on the right side of the run of duplicates.
  const RowRange slices[] = {{2000, 2001}, {1500, 2000}, {2001, 2600},
                             {1999, 2002}};
  for (Consumer what : kAll) {
    for (const RowRange& slice : slices) {
      PlanBuilder b("dups");
      const int u = Union(&b, {SelectOver(&b, sel_.get(), {0, 2001}),
                               SelectOver(&b, sel_.get(), {2000, 2001}),
                               SelectOver(&b, sel_.get(), {2000, kRows})});
      const int c = AddConsumer(&b, what, u, /*sliced=*/true, slice);
      QueryPlan plan = b.Result(c);
      ASSERT_TRUE(plan.Validate().ok());
      ExpectMatchesScalar(plan, c, Name(what) + " " + slice.ToString());

      Evaluator eval;
      EvalResult er;
      ASSERT_TRUE(eval.Execute(plan, &er).ok());
      const Intermediate& packed = er.intermediates.at(u);
      EXPECT_TRUE(packed.ascending);
      EXPECT_EQ(std::count(packed.rowids.begin(), packed.rowids.end(), 2000u),
                3);
    }
  }
}

TEST_F(NarrowingTest, OutOfOrderUnionIsNotFlaggedAndClips) {
  for (Consumer what : kAll) {
    PlanBuilder b("unordered");
    const int u = Union(&b, {SelectOver(&b, sel_.get(), {2500, kRows}),
                             SelectOver(&b, sel_.get(), {0, 2500})});
    const int c = AddConsumer(&b, what, u, /*sliced=*/true, {1800, 3300});
    QueryPlan plan = b.Result(c);
    ASSERT_TRUE(plan.Validate().ok());
    ExpectMatchesScalar(plan, c, Name(what));

    Evaluator eval;
    EvalResult er;
    ASSERT_TRUE(eval.Execute(plan, &er).ok());
    EXPECT_FALSE(er.intermediates.at(u).ascending);
    EXPECT_FALSE(er.result.ascending);
  }
}

TEST_F(NarrowingTest, IdsBeyondTheColumnFailWithTheScalarMessage) {
  // Candidates from a longer table: ids past the fetch/sort column fail
  // even when they lie outside the clone's slice, with the first offender.
  for (Consumer what :
       {Consumer::kFetchAdjust, Consumer::kFetchStrict, Consumer::kSort}) {
    for (const RowRange& slice :
         {RowRange{1000, 2000}, RowRange{4000, kRows}, RowRange{0, 0}}) {
      PlanBuilder b("beyond");
      const int cand = b.Select(wide_.get(), Predicate::RangeI64(0, 0));
      const int c = AddConsumer(&b, what, cand, /*sliced=*/true, slice);
      ExpectSameError(b.Result(c), Name(what) + " " + slice.ToString());
    }
  }
  // A select clips such ids silently, narrowed or not.
  PlanBuilder b("beyond-select");
  const int cand = b.Select(wide_.get(), Predicate::RangeI64(0, 0));
  const int c = AddConsumer(&b, Consumer::kSelect, cand, /*sliced=*/true,
                            {4000, kRows});
  ExpectMatchesScalar(b.Result(c), c, "select beyond");
}

TEST_F(NarrowingTest, MorselsSplitOnlyTheInSliceSpan) {
  // With morsels on, a narrowed clone splits just its slice's candidates:
  // its morsels sum to the in-slice count, not to the list it was given.
  for (Consumer what : {Consumer::kSelect, Consumer::kFetchAdjust}) {
    PlanBuilder b("span");
    const int cand = SelectOver(&b, sel_.get(), {});
    const int c = AddConsumer(&b, what, cand, /*sliced=*/true, {1500, 4500});
    QueryPlan plan = b.Result(c);
    ExecOptions o;
    o.use_morsels = true;
    o.morsel_rows = 512;
    o.morsel_workers = 2;
    Evaluator eval(o);
    if (eval.EffectiveMorselRows() >= 1000) {
      GTEST_SKIP() << "a forced morsel size leaves the slice in one morsel";
    }
    EvalResult er;
    ASSERT_TRUE(eval.Execute(plan, &er).ok());
    const OpMetrics* m = MetricsOf(er, c);
    ASSERT_NE(m, nullptr);
    ASSERT_FALSE(m->morsels.empty()) << Name(what);
    uint64_t in = 0;
    for (const auto& ms : m->morsels) in += ms.tuples_in;
    EXPECT_EQ(in, m->random_accesses) << Name(what);
    EXPECT_LT(in, m->tuples_in) << Name(what);
  }
}

}  // namespace
}  // namespace apq
