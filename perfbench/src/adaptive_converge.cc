// Workload adaptive_converge: the paper's loop (profile -> mutate the most
// expensive operator -> converge) from the serial plan, then the converged
// plan against the serial plan on the wall clock. The mutator, profiler,
// simulator and plan-level exchange do the work; the same exec kernels run
// one plan dozens of times with warm hash caches.
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/compare.h"
#include "reference.h"
#include "workload/skew.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kRows = 2'000'000;
// The simulated machine: 4 logical cores, so the paper's bound on
// convergence is cores + 1 + 8 * cores = 37 runs.
constexpr int kSimCores = 4;
constexpr int kSkewPct = 50;
// Converged, then serial, plan runs per plan per round.
constexpr int kRunsPerRound = 7;

struct Subject {
  std::string name;  // Q6, Q14, Q22, skew50
  apq::QueryPlan serial;
  Answer ref;
  std::vector<double> converge_ms, converged_ms, serial_ms;
  int runs = 0;
  double sim_speedup = 0;  // serial / converged, in simulated time
};

// One timed RunPlan call, checked against the reference answer. Returns
// its latency (0 if it failed).
double TimedRun(apq::Engine& engine, const apq::QueryPlan& plan, Subject& s,
                const char* what, RunOutcome* out, std::vector<double>* ms) {
  ++out->attempted;
  const double t0 = NowMs();
  apq::StatusOr<apq::QueryRunResult> r = engine.RunPlan(plan);
  const double dt = NowMs() - t0;
  if (!r.ok()) {
    ++out->failed;
    return 0;
  }
  ms->push_back(dt);
  const std::string d = CheckAnswer(r.ValueOrDie().result, s.ref);
  if (!d.empty()) out->Fail(s.name + " " + what + " plan vs reference: " + d);
  return dt;
}

}  // namespace

RunOutcome RunAdaptiveConverge(const Args& args, SpanRecorder* spans) {
  if (args.trace) return RunLayers(args, kRows, spans);
  RunOutcome out;

  // ---- set-up: generate both catalogs, plan, warm the serial plans -------
  apq::TpchConfig tc;
  tc.lineitem_rows = kRows;
  tc.seed = args.seed;
  apq::SkewConfig sc;
  sc.rows = kRows;
  sc.seed = args.seed;
  const std::shared_ptr<apq::Catalog> tpch = apq::Tpch::Generate(tc);
  const std::shared_ptr<apq::Catalog> skew = apq::GenerateSkewed(sc);
  std::vector<Subject> subjects;
  for (const char* q : {"Q6", "Q14", "Q22"}) {
    auto p = apq::Tpch::Query(*tpch, q);
    if (!p.ok()) {
      out.Fail(std::string("plan ") + q + ": " + p.status().ToString());
      return out;
    }
    Subject s;
    s.name = q;
    s.serial = p.MoveValueOrDie();
    subjects.push_back(std::move(s));
  }
  {
    auto p = apq::SkewedSelectPlan(*skew, sc, kSkewPct);
    if (!p.ok()) {
      out.Fail("plan skew50: " + p.status().ToString());
      return out;
    }
    Subject s;
    s.name = "skew" + std::to_string(kSkewPct);
    s.serial = p.MoveValueOrDie();
    subjects.push_back(std::move(s));
  }
  apq::Engine engine(
      apq::EngineConfig::WithSim(apq::SimConfig::Cores(kSimCores, kSimCores)));
  for (Subject& s : subjects) {
    auto r = engine.RunPlan(s.serial);
    if (!r.ok()) {
      out.Fail("warm-up " + s.name + ": " + r.status().ToString());
      return out;
    }
  }
  const double setup_s = ProcessSeconds();

  for (Subject& s : subjects) {
    // SkewedSelectPlan at 50% matches every cluster value 0..clusters-1.
    s.ref = s.name.rfind("skew", 0) == 0
                ? ReferenceSkewedSum(*skew, sc.clusters - 1)
                : ReferenceTpch(*tpch, s.name);
  }
  const int bound = kSimCores + 1 + 8 * kSimCores;

  // ---- measured rounds: converge each plan, then converged vs serial -----
  // Per round: the summed latency of every timed call (four RunAdaptive
  // instances, then the converged and serial plan runs).
  std::vector<double> round_ms;
  const double t_loop = NowMs();
  int rounds = 0;
  do {
    double round_sum = 0;
    for (Subject& s : subjects) {
      ++out.attempted;
      const double t0 = NowMs();
      apq::StatusOr<apq::AdaptiveOutcome> o = engine.RunAdaptive(s.serial);
      const double dt = NowMs() - t0;
      if (!o.ok()) {
        ++out.failed;
        continue;
      }
      const apq::AdaptiveOutcome& a = o.ValueOrDie();
      round_sum += dt;
      s.converge_ms.push_back(dt);
      s.runs = a.total_runs;
      s.sim_speedup = a.Speedup();
      if (a.total_runs > bound) {
        out.Fail(s.name + " took " + std::to_string(a.total_runs) +
                 " runs to converge, beyond the paper's bound of " +
                 std::to_string(bound));
      }
      std::string d = CheckAnswer(a.result, s.ref);
      if (!d.empty()) out.Fail(s.name + " adaptive result vs reference: " + d);

      // In batches: the first run after another plan pays for the heap's
      // changed shape (freed chunks returned to the kernel); the median of
      // a batch is the plan re-run on a warm heap, as the adaptive loop
      // re-runs it.
      for (int i = 0; i < kRunsPerRound; ++i) {
        round_sum += TimedRun(engine, a.gme_plan, s, "converged", &out, &s.converged_ms);
      }
      for (int i = 0; i < kRunsPerRound; ++i) {
        round_sum += TimedRun(engine, s.serial, s, "serial", &out, &s.serial_ms);
      }
      if (rounds == 0) {
        // The converged plan against the serial plan, directly.
        auto c = engine.RunPlan(a.gme_plan);
        auto r = engine.RunPlan(s.serial);
        if (c.ok() && r.ok()) {
          d = apq::DiffIntermediates(c.ValueOrDie().result,
                                     r.ValueOrDie().result, kSumRelTol);
          if (!d.empty()) out.Fail(s.name + " converged vs serial: " + d);
        }
      }
    }
    round_ms.push_back(round_sum);
    ++rounds;
  } while (NowMs() - t_loop < args.seconds * 1e3);

  // ---- the heuristic plan (Fig 16 comparator) against the reference -------
  for (Subject& s : subjects) {
    auto h = engine.RunHeuristic(s.serial, HostThreads());
    if (!h.ok()) {
      out.Fail(s.name + " heuristic: " + h.status().ToString());
      continue;
    }
    const std::string d = CheckAnswer(h.ValueOrDie().result, s.ref);
    if (!d.empty()) out.Fail(s.name + " heuristic vs reference: " + d);
  }

  // geomean_ms is over the converged plans; the serial plans' geomean, the
  // baseline the paper claims to beat, goes to the run record.
  std::vector<double> converged, serial;
  for (Subject& s : subjects) {
    converged.push_back(Median(s.converged_ms));
    serial.push_back(Median(s.serial_ms));
    out.details["runs." + s.name] = std::to_string(s.runs);
    out.details["converged_ms." + s.name] = JsonNumber(converged.back());
    out.details["serial_ms." + s.name] = JsonNumber(serial.back());
    out.details["converge_ms." + s.name] = JsonNumber(Median(s.converge_ms));
    out.details["sim_speedup." + s.name] = JsonNumber(s.sim_speedup);
  }
  out.details["rounds"] = std::to_string(rounds);
  out.details["serial_geomean_ms"] = JsonNumber(GeoMean(serial));
  out.metrics.Set("setup_s", setup_s, "s");
  out.metrics.Set("peak_rss_mb", PeakRssMb(), "MiB");
  out.metrics.Set("geomean_ms", GeoMean(converged), "ms");
  out.metrics.Set("round_s", Median(round_ms) / 1e3, "s");
  return out;
}

}  // namespace perfbench
