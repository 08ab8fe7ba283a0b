// The traced run, the same for every workload: each layer's public calls,
// timed from outside on the workload's own catalog, give the per-layer
// metrics. Layers, bottom up: the select kernel, Evaluator::Execute whole-
// column, morsels at 1 and N workers (with the fleet's worker stats), the
// Engine, the adaptive loop and the heuristic plan, and the served front
// end. Every result is checked against the reference answers.
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "exec/kernels.h"
#include "reference.h"
#include "sched/morsel_scheduler.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "service_client.h"
#include "workload/skew.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Timed repetitions of each evaluator probe, and of the kernel alone.
constexpr int kLayerReps = 3;
constexpr int kKernelReps = 11;
// Engine passes over the seven queries, alternating spans off / on.
constexpr int kEnginePasses = 4;
// The simulated machine of the adaptive probe: 4 logical cores, so the
// paper's bound on convergence is cores + 1 + 8 * cores = 37 runs.
constexpr int kSimCores = 4;
constexpr int kSkewPct = 50;
constexpr int kHeuristicReps = 5;
// Sequential served round trips per short query, after the warm-up.
constexpr int kServedReps = 20;
constexpr int kServedWarmupPerExecutor = 2;
const char* const kShort[] = {"Q6", "Q14"};

struct Catalogs {
  std::shared_ptr<apq::Catalog> tpch, skew;
  apq::SkewConfig skew_config;
  std::vector<std::string> names;
  std::vector<apq::QueryPlan> plans;  // one per name
  std::vector<Answer> refs;           // one per name
};

struct Probe {
  double ms = 0;
  uint64_t minflt = 0;
  apq::Intermediate result;
};

Probe Execute(apq::Evaluator& ev, const apq::QueryPlan& plan,
              SpanRecorder* spans, const char* span, const std::string& q,
              RunOutcome* out) {
  apq::EvalResult r;
  Probe p;
  apq::Status st;
  {
    SpanScope s(spans, span, q);
    const uint64_t f0 = MinorFaults();
    const double t0 = NowMs();
    st = ev.Execute(plan, &r);
    p.ms = NowMs() - t0;
    p.minflt = MinorFaults() - f0;
  }
  if (!st.ok()) {
    out->Fail(std::string(span) + " " + q + ": " + st.ToString());
    return p;
  }
  p.result = std::move(r.result);
  return p;
}

struct FleetTotals {
  uint64_t tasks = 0, steals = 0, busy_ns = 0;
};

FleetTotals Totals(const apq::MorselScheduler& s) {
  FleetTotals t;
  for (const apq::MorselWorkerStats& w : s.worker_stats()) {
    t.tasks += w.tasks;
    t.steals += w.steals;
    t.busy_ns += w.busy_ns;
  }
  return t;
}

// The kernel alone, into a reused buffer: the base of the ledger.
void ProbeKernel(const Catalogs& c, SpanRecorder* spans, RunOutcome* out) {
  const apq::Column* ship = c.tpch->GetTable("lineitem")->GetColumn("l_shipdate");
  const apq::Predicate pred =
      apq::Predicate::RangeI64(apq::kTpchDate0 + 365, apq::kTpchDate0 + 729);
  const apq::simd::SimdOps* ops = &apq::simd::Resolve(apq::simd::SimdLevel::kAuto);
  uint64_t expect = 0;
  for (int64_t v : ship->i64()) {
    expect += v >= apq::kTpchDate0 + 365 && v <= apq::kTpchDate0 + 729;
  }
  std::vector<apq::oid> buf;
  buf.reserve(ship->size());
  std::vector<double> ms;
  for (int r = 0; r < kKernelReps; ++r) {
    buf.clear();
    SpanScope s(spans, "exec.kernel_select", "Q6");
    const double t0 = NowMs();
    apq::SelectDense(*ship, ship->full_range(), pred, nullptr, &buf, ops);
    ms.push_back(NowMs() - t0);
  }
  if (buf.size() != expect) {
    out->Fail("SelectDense matched " + std::to_string(buf.size()) +
              " rows, reference " + std::to_string(expect));
  }
  out->metrics.Set("exec.kernel_select_ms", Median(ms), "ms");
}

// Evaluator::Execute whole-column, and with morsels at 1 and N workers.
void ProbeEvaluator(const Catalogs& c, SpanRecorder* spans, RunOutcome* out) {
  const int nw = HostThreads();
  apq::Evaluator whole;  // default options: one thread, whole-column
  apq::ExecOptions mo;
  mo.use_morsels = true;
  apq::Evaluator m1(mo);
  m1.set_morsel_scheduler(std::make_shared<apq::MorselScheduler>(1));
  apq::Evaluator mn(mo);
  auto fleet = std::make_shared<apq::MorselScheduler>(nw);
  mn.set_morsel_scheduler(fleet);

  double mn_wall_ms = 0;
  const FleetTotals before = Totals(*fleet);
  for (size_t i = 0; i < c.names.size(); ++i) {
    const std::string& q = c.names[i];
    std::vector<double> w_ms, w_flt, a_ms, n_ms;
    for (int r = 0; r < kLayerReps; ++r) {
      Probe w = Execute(whole, c.plans[i], spans, "exec.execute_whole", q, out);
      Probe a = Execute(m1, c.plans[i], spans, "sched.execute_w1", q, out);
      Probe n = Execute(mn, c.plans[i], spans, "sched.execute_wN", q, out);
      w_ms.push_back(w.ms);
      w_flt.push_back(static_cast<double>(w.minflt));
      a_ms.push_back(a.ms);
      n_ms.push_back(n.ms);
      mn_wall_ms += n.ms;
      if (r > 0) continue;
      std::string d = CheckAnswer(n.result, c.refs[i]);
      if (!d.empty()) out->Fail(q + " morsels x" + std::to_string(nw) + " vs reference: " + d);
      d = CompareResults(a.result, n.result, false, nullptr);
      if (!d.empty()) out->Fail(q + " morsels x1 vs x" + std::to_string(nw) + ": " + d);
      d = CompareResults(w.result, n.result, true, nullptr);
      if (!d.empty()) out->Fail(q + " whole-column vs morsels: " + d);
    }
    out->metrics.Set("exec.whole_ms." + q, Median(w_ms), "ms");
    out->metrics.Set("exec.minflt." + q, Median(w_flt), "count");
    out->metrics.Set("sched.morsel_ms." + q + ".w1", Median(a_ms), "ms");
    out->metrics.Set("sched.morsel_ms." + q + ".wN", Median(n_ms), "ms");
  }
  const FleetTotals after = Totals(*fleet);
  // Per pass of the seven queries at N workers.
  const double per = 1.0 / kLayerReps;
  const double busy_ms = static_cast<double>(after.busy_ns - before.busy_ns) / 1e6;
  out->metrics.Set("sched.tasks", per * static_cast<double>(after.tasks - before.tasks), "count");
  out->metrics.Set("sched.steals", per * static_cast<double>(after.steals - before.steals), "count");
  out->metrics.Set("sched.busy_ms", per * busy_ms, "ms");
  out->metrics.Set("sched.idle_ms", per * (mn_wall_ms * nw - busy_ms), "ms");
}

// Engine::RunPlan with morsels over one fleet of N workers, as the
// service's executors run it. Returns the last result of each query.
std::vector<apq::QueryRunResult> ProbeEngine(const Catalogs& c,
                                             SpanRecorder* spans,
                                             RunOutcome* out) {
  apq::EngineConfig ec;
  ec.use_morsels = true;
  ec.morsel_scheduler = std::make_shared<apq::MorselScheduler>(HostThreads());
  apq::Engine engine(ec);
  std::vector<apq::QueryRunResult> last(c.names.size());
  std::vector<double> overhead_us, pass_on_ms, pass_off_ms;
  // Scheduler queue wait billed to the engine's queries (the per-operator
  // profile; Evaluator::Execute outside an Engine query bills none).
  double queue_wait_ms = 0;
  for (int pass = 0; pass < kEnginePasses; ++pass) {
    SpanRecorder* rec = pass % 2 == 1 ? spans : nullptr;
    const double p0 = NowMs();
    for (size_t i = 0; i < c.names.size(); ++i) {
      ++out->attempted;
      const double t0 = NowMs();
      apq::StatusOr<apq::QueryRunResult> r = [&] {
        SpanScope s(rec, "engine.run_plan", c.names[i]);
        return engine.RunPlan(c.plans[i]);
      }();
      const double dt = NowMs() - t0;
      if (!r.ok()) {
        ++out->failed;
        continue;
      }
      overhead_us.push_back(dt * 1e3 - r.ValueOrDie().wall_ns / 1e3);
      for (const apq::OpProfile& op : r.ValueOrDie().profile.ops) {
        queue_wait_ms += op.queue_wait_ns / 1e6;
      }
      const std::string d = CheckAnswer(r.ValueOrDie().result, c.refs[i]);
      if (!d.empty()) out->Fail(c.names[i] + " RunPlan vs reference: " + d);
      last[i] = std::move(r.ValueOrDie());
    }
    (rec != nullptr ? pass_on_ms : pass_off_ms).push_back(NowMs() - p0);
  }
  out->metrics.Set("engine.overhead_us", Median(overhead_us), "us");
  out->metrics.Set("sched.queue_wait_ms", queue_wait_ms / kEnginePasses, "ms");
  out->metrics.Set("trace.overhead_ms", Median(pass_on_ms) - Median(pass_off_ms), "ms");
  return last;
}

// RunAdaptive from the serial plan to convergence, and the heuristic plan
// (the Fig 16 comparator), for Q6, Q14, Q22 and the skewed select.
void ProbeAdaptive(const Catalogs& c, SpanRecorder* spans, RunOutcome* out) {
  struct Subject {
    std::string name;
    apq::QueryPlan plan;
    Answer ref;
  };
  std::vector<Subject> subjects;
  for (const char* q : {"Q6", "Q14", "Q22"}) {
    for (size_t i = 0; i < c.names.size(); ++i) {
      if (c.names[i] == q) subjects.push_back({q, c.plans[i], c.refs[i]});
    }
  }
  auto skew = apq::SkewedSelectPlan(*c.skew, c.skew_config, kSkewPct);
  if (!skew.ok()) {
    out->Fail("plan skew50: " + skew.status().ToString());
    return;
  }
  // SkewedSelectPlan at 50% matches every cluster value 0..clusters-1.
  subjects.push_back({"skew" + std::to_string(kSkewPct), skew.MoveValueOrDie(),
                      ReferenceSkewedSum(*c.skew, c.skew_config.clusters - 1)});

  apq::Engine engine(
      apq::EngineConfig::WithSim(apq::SimConfig::Cores(kSimCores, kSimCores)));
  const int bound = kSimCores + 1 + 8 * kSimCores;
  double exec_ms = 0, self_ms = 0;
  for (const Subject& s : subjects) {
    if (!engine.RunPlan(s.plan).ok()) out->Fail("warm-up " + s.name);
    ++out->attempted;
    const double t0 = NowMs();
    apq::StatusOr<apq::AdaptiveOutcome> o = [&] {
      SpanScope span(spans, "adaptive.run_adaptive", s.name);
      return engine.RunAdaptive(s.plan);
    }();
    const double dt = NowMs() - t0;
    if (!o.ok()) {
      ++out->failed;
      continue;
    }
    const apq::AdaptiveOutcome& a = o.ValueOrDie();
    double run_ms = 0;
    for (const apq::AdaptiveRun& run : a.runs) run_ms += run.wall_ns / 1e6;
    exec_ms += run_ms;
    self_ms += dt - run_ms;
    out->metrics.Set("adaptive.runs." + s.name, a.total_runs, "count");
    if (a.total_runs > bound) {
      out->Fail(s.name + " took " + std::to_string(a.total_runs) +
                " runs to converge, beyond the paper's bound of " +
                std::to_string(bound));
    }
    std::string d = CheckAnswer(a.result, s.ref);
    if (!d.empty()) out->Fail(s.name + " adaptive result vs reference: " + d);

    std::vector<double> ms;
    for (int i = 0; i < kHeuristicReps; ++i) {
      SpanScope span(spans, "heuristic.run_heuristic", s.name);
      const double h0 = NowMs();
      auto h = engine.RunHeuristic(s.plan, HostThreads());
      ms.push_back(NowMs() - h0);
      if (!h.ok()) {
        out->Fail(s.name + " heuristic: " + h.status().ToString());
        break;
      }
      d = CheckAnswer(h.ValueOrDie().result, s.ref);
      if (!d.empty()) out->Fail(s.name + " heuristic vs reference: " + d);
    }
    out->metrics.Set("heuristic.wall_ms." + s.name, Median(ms), "ms");
  }
  out->metrics.Set("adaptive.exec_ms", exec_ms, "ms");
  out->metrics.Set("adaptive.self_ms", self_ms, "ms");
}

// The served front end: ParseRequest and OkResponse alone, then sequential
// round trips of the short queries over one loopback connection.
void ProbeService(const Catalogs& c,
                  const std::vector<apq::QueryRunResult>& results,
                  SpanRecorder* spans, RunOutcome* out) {
  {
    std::vector<double> parse_ns;
    for (int rep = 0; rep < 5; ++rep) {
      constexpr int kCalls = 20'000;
      const double p0 = NowMs();
      for (int i = 0; i < kCalls; ++i) {
        apq::service::Request req;
        const std::string line = "RUN " + c.names[static_cast<size_t>(i) % c.names.size()] +
                                 " tag=" + std::to_string(i);
        const apq::Status st = apq::service::ParseRequest(line, &req);
        if (!st.ok()) out->Fail("ParseRequest: " + st.ToString());
      }
      parse_ns.push_back((NowMs() - p0) * 1e6 / kCalls);
    }
    out->metrics.Set("service.parse_ns", Median(parse_ns), "ns");
  }
  {
    std::vector<double> ser_us;
    for (const apq::QueryRunResult& rr : results) {
      constexpr int kCalls = 2'000;
      size_t bytes = 0;
      const double s0 = NowMs();
      for (int i = 0; i < kCalls; ++i) {
        bytes += apq::service::OkResponse(rr.query_id, 1, 4, rr.wall_ns, 0, rr.result).size();
      }
      ser_us.push_back((NowMs() - s0) * 1e3 / kCalls);
      if (bytes == 0) out->Fail("OkResponse wrote nothing");
    }
    out->metrics.Set("service.serialize_us", Median(ser_us), "us");
  }

  apq::service::QueryService svc;
  apq::service::ServiceConfig cfg;  // defaults; no APQ_SERVICE_* knob read
  apq::Status st = svc.Start(c.tpch, cfg);
  if (!st.ok()) {
    out->Fail("service start: " + st.ToString());
    return;
  }
  Client client;
  std::string err = client.Connect(svc.port(), 1);
  if (!err.empty()) {
    out->Fail(err);
    svc.Stop();
    return;
  }
  std::vector<std::string> sent;  // query of each tag
  std::vector<double> sent_ms;
  std::vector<Response> resps;
  auto round_trip = [&](const std::string& q) {
    const uint64_t tag = sent.size();
    sent.push_back(q);
    sent_ms.push_back(NowMs());
    if (!client.Send(0, "RUN " + q + " tag=" + std::to_string(tag) + "\n")) return;
    const std::atomic<double> deadline{NowMs() + 20'000};
    client.Receive(sent.size(), &deadline, &resps);
  };
  for (int k = 0; k < kServedWarmupPerExecutor * cfg.max_concurrent; ++k) {
    for (const char* q : kShort) round_trip(q);
  }
  const size_t warm = sent.size();
  for (int k = 0; k < kServedReps; ++k) {
    for (const char* q : kShort) {
      SpanScope span(spans, "service.round_trip", q);
      round_trip(q);
    }
  }
  svc.Stop();
  const apq::service::ServiceStats stats = svc.Stats();
  std::vector<uint64_t> tags;
  for (const Response& r : resps) tags.push_back(r.tag);
  for (const std::string& e : ServedAccountingErrors(sent.size(), tags, stats)) {
    out->Fail(e);
  }

  // Served ROW bytes against SerializeResult of a direct run at the same
  // morsel size.
  auto fleet = std::make_shared<apq::MorselScheduler>(svc.config().morsel_workers);
  std::map<std::pair<std::string, int>, std::string> direct;
  std::vector<double> exec_ms, qwait_ms, over_ms;
  for (const Response& r : resps) {
    if (r.tag >= sent.size()) continue;
    const std::string& q = sent[r.tag];
    if (r.tag >= warm) ++out->attempted;
    if (!r.ok) {
      if (r.tag >= warm) ++out->failed;
      out->Fail("served " + q + ": " + r.header);
      continue;
    }
    const int factor = MorselFactor(fleet->num_workers(), r.workers);
    auto key = std::make_pair(q, factor);
    if (!direct.count(key)) {
      apq::EngineConfig ec;
      ec.use_morsels = true;
      ec.morsel_scheduler = fleet;
      ec.morsel_rows = apq::kDefaultMorselRows * static_cast<uint64_t>(factor);
      apq::Engine engine(ec);
      auto d = engine.RunPlan(apq::Tpch::Query(*c.tpch, q).ValueOrDie());
      direct[key] = d.ok() ? apq::service::SerializeResult(d.ValueOrDie().result) : "";
    }
    if (r.rows != direct[key]) {
      out->Fail("served " + q + " differs from the direct run's SerializeResult");
    }
    if (r.tag < warm) continue;
    exec_ms.push_back(r.wall_ns / 1e6);
    qwait_ms.push_back(r.queue_wait_ns / 1e6);
    over_ms.push_back(r.recv_ms - sent_ms[r.tag] - (r.wall_ns + r.queue_wait_ns) / 1e6);
  }
  out->metrics.Set("service.exec_ms", Median(exec_ms), "ms");
  out->metrics.Set("service.queue_wait_ms", Median(qwait_ms), "ms");
  out->metrics.Set("service.overhead_ms", Median(over_ms), "ms");
}

}  // namespace

RunOutcome RunLayers(const Args& args, uint64_t lineitem_rows,
                     SpanRecorder* spans) {
  RunOutcome out;
  Catalogs c;
  apq::TpchConfig tc;
  tc.lineitem_rows = lineitem_rows;
  tc.seed = args.seed;
  c.skew_config.rows = lineitem_rows;
  c.skew_config.seed = args.seed;
  {
    SpanScope s(spans, "workload.generate");
    const double t0 = NowMs();
    c.tpch = apq::Tpch::Generate(tc);
    c.skew = apq::GenerateSkewed(c.skew_config);
    out.metrics.Set("workload.generate_s", (NowMs() - t0) / 1e3, "s");
  }
  c.names = apq::Tpch::QueryNames();
  for (const std::string& q : c.names) {
    auto p = apq::Tpch::Query(*c.tpch, q);
    if (!p.ok()) {
      out.Fail("plan " + q + ": " + p.status().ToString());
      return out;
    }
    c.plans.push_back(p.MoveValueOrDie());
    c.refs.push_back(ReferenceTpch(*c.tpch, q));
  }
  // Whole rounds of every probe until Args::seconds have passed (at least
  // one); each metric is its median over the rounds.
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  int rounds = 0;
  const double t0 = NowMs();
  do {
    RunOutcome round;
    ProbeKernel(c, spans, &round);
    ProbeEvaluator(c, spans, &round);
    const std::vector<apq::QueryRunResult> results = ProbeEngine(c, spans, &round);
    ProbeAdaptive(c, spans, &round);
    ProbeService(c, results, spans, &round);
    out.attempted += round.attempted;
    out.failed += round.failed;
    if (!round.correct) out.correct = false;
    out.errors.insert(out.errors.end(), round.errors.begin(), round.errors.end());
    for (const auto& [name, v] : round.metrics.values()) {
      values[name].push_back(v.first);
      units[name] = v.second;
    }
    ++rounds;
  } while (NowMs() - t0 < args.seconds * 1e3);
  for (const auto& [name, v] : values) out.metrics.Set(name, Median(v), units[name]);
  out.details["rounds"] = std::to_string(rounds);
  return out;
}

}  // namespace perfbench
