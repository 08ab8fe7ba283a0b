// The benchmark's self-test: each check must accept the program's true
// output and reject a corrupted copy of it. Corruptions: one floating value,
// one count, one group order, one byte of a cross-path result, and one
// served accounting record.
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "reference.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct Tally {
  int passed = 0, failed = 0;
  void Expect(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    (ok ? passed : failed)++;
  }
};

}  // namespace

int RunSelfTest() {
  Tally t;
  apq::TpchConfig tc;
  tc.lineitem_rows = 60'000;
  tc.seed = 3;
  auto cat = apq::Tpch::Generate(tc);
  apq::Engine engine;
  auto run = [&](const char* q) {
    return engine.RunPlan(apq::Tpch::Query(*cat, q).ValueOrDie())
        .ValueOrDie()
        .result;
  };
  const apq::Intermediate q6 = run("Q6"), q4 = run("Q4"), q8 = run("Q8");
  const Answer r6 = ReferenceTpch(*cat, "Q6"), r4 = ReferenceTpch(*cat, "Q4"),
               r8 = ReferenceTpch(*cat, "Q8");

  t.Expect(CheckAnswer(q6, r6).empty(), "Q6 matches its reference");
  t.Expect(CheckAnswer(q4, r4).empty(), "Q4 matches its reference");
  t.Expect(CheckAnswer(q8, r8).empty(), "Q8 matches its reference");

  // One value.
  apq::Intermediate bad = q6;
  bad.scalar *= 1 + 1e-7;
  std::string d = CheckAnswer(bad, r6);
  t.Expect(!d.empty(), "Q6 value off by 1e-7 is rejected: " + d);
  bad = q8;
  bad.agg_vals[3] *= 1 + 1e-7;
  d = CheckAnswer(bad, r8);
  t.Expect(!d.empty(), "Q8 group value off by 1e-7 is rejected: " + d);

  // One count.
  bad = q6;
  bad.scalar_count += 1;
  d = CheckAnswer(bad, r6);
  t.Expect(!d.empty(), "Q6 row count + 1 is rejected: " + d);
  bad = q4;
  bad.agg_vals[0] += 1;
  bad.agg_counts[0] += 1;
  d = CheckAnswer(bad, r4);
  t.Expect(!d.empty(), "Q4 group count + 1 is rejected: " + d);

  // One group order.
  bad = q8;
  std::swap(bad.group_keys.i64[0], bad.group_keys.i64[1]);
  std::swap(bad.agg_vals[0], bad.agg_vals[1]);
  std::swap(bad.agg_counts[0], bad.agg_counts[1]);
  d = CheckAnswer(bad, r8);
  t.Expect(!d.empty(), "Q8 first two groups swapped is rejected: " + d);

  // Cross-path identity: bit-exact unless float bits are allowed to differ.
  bool bit_diff = false;
  t.Expect(CompareResults(q8, q8, false, &bit_diff).empty() && !bit_diff,
           "identical results compare equal");
  bad = q4;
  bad.agg_counts[2] += 1;
  d = CompareResults(q4, bad, true, &bit_diff);
  t.Expect(!d.empty(), "a count differing between paths is rejected: " + d);
  bad = q8;
  bad.agg_vals[1] = std::nextafter(bad.agg_vals[1], 1e300);
  d = CompareResults(q8, bad, false, &bit_diff);
  t.Expect(!d.empty(), "a one-ulp difference is rejected bit-exactly: " + d);
  bit_diff = false;
  t.Expect(CompareResults(q8, bad, true, &bit_diff).empty() && bit_diff,
           "a one-ulp grouped sum difference is flagged as a bit difference");

  // Served accounting.
  apq::service::ServiceStats ok;
  ok.requests_total = ok.responses_total = 3;
  ok.admission.admitted_total = ok.admission.completed_total = 3;
  t.Expect(ServedAccountingErrors(3, {2, 0, 1}, ok).empty(),
           "clean served accounting passes");
  t.Expect(!ServedAccountingErrors(3, {2, 0, 0}, ok).empty(),
           "a tag answered twice (and one never) is rejected");
  apq::service::ServiceStats lost = ok;
  lost.responses_total = 2;
  t.Expect(!ServedAccountingErrors(3, {2, 0, 1}, lost).empty(),
           "responses_total != requests sent is rejected");
  apq::service::ServiceStats leak = ok;
  leak.admission.completed_total = 2;
  t.Expect(!ServedAccountingErrors(3, {2, 0, 1}, leak).empty(),
           "admitted_total != completed_total is rejected");
  apq::service::ServiceStats shed = ok;
  shed.admission.shed_total = 1;
  t.Expect(!ServedAccountingErrors(3, {2, 0, 1}, shed).empty(),
           "a shed request is rejected");

  std::printf("selftest: %d passed, %d failed\n", t.passed, t.failed);
  return t.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
