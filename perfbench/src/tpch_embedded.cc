// Workload tpch_embedded: an application embedding the engine, running the
// seven TPC-H queries back to back in a closed loop. Kernels, evaluator
// allocation, the morsel scheduler, aggregation, sort and the join probe do
// almost all the work; the adaptive loop and the service do none.
#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "reference.h"
#include "sched/morsel_scheduler.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace perfbench {

namespace {

// 4M lineitem rows: about 0.5 GB of lineitem columns alone, far beyond the
// last-level cache, so every pass streams from memory.
constexpr uint64_t kLineitemRows = 4'000'000;

apq::Intermediate Execute(apq::Evaluator& ev, const apq::QueryPlan& plan,
                          const std::string& what, RunOutcome* out) {
  apq::EvalResult r;
  const apq::Status st = ev.Execute(plan, &r);
  if (!st.ok()) out->Fail(what + ": " + st.ToString());
  return std::move(r.result);
}

}  // namespace

RunOutcome RunTpchEmbedded(const Args& args, SpanRecorder* spans) {
  if (args.trace) return RunLayers(args, kLineitemRows, spans);
  RunOutcome out;
  const int nw = HostThreads();

  // ---- set-up: generate, plan, start the engine, one warm-up pass --------
  apq::TpchConfig tc;
  tc.lineitem_rows = kLineitemRows;
  tc.seed = args.seed;
  const std::shared_ptr<apq::Catalog> cat = apq::Tpch::Generate(tc);
  const std::vector<std::string> names = apq::Tpch::QueryNames();
  std::map<std::string, apq::QueryPlan> plans;
  for (const std::string& q : names) {
    auto p = apq::Tpch::Query(*cat, q);
    if (!p.ok()) {
      out.Fail("plan " + q + ": " + p.status().ToString());
      return out;
    }
    plans.emplace(q, p.MoveValueOrDie());
  }
  auto fleet = std::make_shared<apq::MorselScheduler>(nw);
  apq::EngineConfig ec;
  ec.use_morsels = true;
  ec.morsel_scheduler = fleet;
  apq::Engine engine(ec);
  std::map<std::string, apq::Intermediate> first;  // warm-up results
  for (const std::string& q : names) {
    auto r = engine.RunPlan(plans.at(q));
    if (!r.ok()) {
      out.Fail("warm-up " + q + ": " + r.status().ToString());
      return out;
    }
    first[q] = std::move(r.ValueOrDie().result);
  }
  const double setup_s = ProcessSeconds();

  // ---- reference answers (not part of set-up: the benchmark's own cost) --
  std::map<std::string, Answer> ref;
  for (const std::string& q : names) {
    ref[q] = ReferenceTpch(*cat, q);
    const std::string d = CheckAnswer(first.at(q), ref[q]);
    if (!d.empty()) out.Fail("tpch " + q + " vs reference: " + d);
  }

  // ---- closed loop: whole passes over the seven queries in seeded order --
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ULL + 11 + args.process);
  std::map<std::string, std::vector<double>> lat_ms;
  std::vector<double> pass_ms;
  std::map<std::string, bool> reported;
  const double t_loop = NowMs();
  for (int pass = 0; NowMs() - t_loop < args.seconds * 1e3; ++pass) {
    std::vector<std::string> order = names;
    std::shuffle(order.begin(), order.end(), rng);
    double pass_sum = 0;
    for (const std::string& q : order) {
      ++out.attempted;
      const double c0 = NowMs();
      apq::StatusOr<apq::QueryRunResult> r = engine.RunPlan(plans.at(q));
      const double dt = NowMs() - c0;
      if (!r.ok()) {
        ++out.failed;
        continue;
      }
      lat_ms[q].push_back(dt);
      pass_sum += dt;
      std::string d = CheckAnswer(r.ValueOrDie().result, ref.at(q));
      if (d.empty()) {
        // Same plan, same morsel size, another steal order: same bytes.
        d = CompareResults(r.ValueOrDie().result, first.at(q), false, nullptr);
      }
      if (!d.empty() && !reported[q]) {
        reported[q] = true;
        out.Fail("tpch " + q + " pass " + std::to_string(pass) + ": " + d);
      }
    }
    pass_ms.push_back(pass_sum);
  }

  // ---- cross-path identity: whole-column and morsels x1 vs morsels xN ----
  apq::Evaluator whole;  // default options: one thread, whole-column
  apq::ExecOptions mo;
  mo.use_morsels = true;
  apq::Evaluator m1(mo);
  m1.set_morsel_scheduler(std::make_shared<apq::MorselScheduler>(1));
  // One process of a run checks these (the first): they cost about two
  // passes and do not depend on the query order.
  std::vector<std::string> bit_diff_queries;
  for (const std::string& q : args.process == 0 ? names : std::vector<std::string>{}) {
    const apq::QueryPlan& plan = plans.at(q);
    const apq::Intermediate w = Execute(whole, plan, "whole-column " + q, &out);
    const apq::Intermediate a = Execute(m1, plan, "morsels x1 " + q, &out);
    std::string d = CompareResults(a, first.at(q), false, nullptr);
    if (!d.empty()) out.Fail("tpch " + q + " morsels x1 vs x" + std::to_string(nw) + ": " + d);
    bool bit_diff = false;
    d = CompareResults(w, first.at(q), true, &bit_diff);
    if (!d.empty()) out.Fail("tpch " + q + " whole-column vs morsels: " + d);
    if (bit_diff) bit_diff_queries.push_back(q);
  }
  std::string bd = "[";
  for (size_t i = 0; i < bit_diff_queries.size(); ++i) {
    bd += (i ? ", \"" : "\"") + bit_diff_queries[i] + "\"";
  }
  out.details["whole_vs_morsel_float_bit_diffs"] = bd + "]";

  std::vector<double> med;
  for (const std::string& q : names) {
    const double m = Median(lat_ms[q]);
    med.push_back(m);
    out.details["median_ms." + q] = JsonNumber(m);
  }
  out.details["passes"] = std::to_string(pass_ms.size());
  out.details["round_iqr_share"] = JsonNumber(RelativeIqr(pass_ms));
  out.metrics.Set("setup_s", setup_s, "s");
  out.metrics.Set("peak_rss_mb", PeakRssMb(), "MiB");
  out.metrics.Set("geomean_ms", GeoMean(med), "ms");
  out.metrics.Set("round_s", Median(pass_ms) / 1e3, "s");
  return out;
}

}  // namespace perfbench
