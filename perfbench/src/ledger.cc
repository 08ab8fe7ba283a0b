// The layer ledger: the same select and fetch-join work measured through
// each layer in turn -- kernel, evaluator whole-column, morsels at 1 and N
// workers, the converged adaptive plan, and the served front end -- each
// row with its ratio to the layer below and both bases. 2M lineitem rows,
// 50% selectivity on l_shipdate.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/kernels.h"
#include "plan/builder.h"
#include "reference.h"
#include "sched/morsel_scheduler.h"
#include "service/query_service.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kRows = 2'000'000;
constexpr double kMatch = 0.5;
constexpr int kReps = 7;

struct Row {
  std::string layer;
  double select_ms = NAN;
  double fetch_ms = NAN;
};

double MedianMs(int reps, const std::function<void()>& fn) {
  fn();  // warm: hash caches, first-touch of the inputs
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowMs();
    fn();
    ms.push_back(NowMs() - t0);
  }
  return Median(ms);
}

std::string Cell(double v) {
  if (std::isnan(v)) return "—";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f ms", v);
  return buf;
}

std::string Ratio(double v, double below) {
  if (std::isnan(v) || std::isnan(below) || below <= 0) return "—";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2fx (%.2f / %.2f)", v / below, v, below);
  return buf;
}

// One closed-loop round trip of `line` on `fd`; returns the response block.
std::string RoundTrip(int fd, const std::string& line) {
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(line.size())) {
    return "";
  }
  std::string buf;
  char tmp[4096];
  while (buf.find("END\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) return "";
    buf.append(tmp, static_cast<size_t>(n));
  }
  return buf;
}

}  // namespace

int RunLedger(const Args& args) {
  int errors = 0;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++errors;
      std::fprintf(stderr, "perfbench: ledger check failed: %s\n", what.c_str());
    }
  };

  apq::TpchConfig tc;
  tc.lineitem_rows = kRows;
  tc.seed = args.seed;
  auto cat = apq::Tpch::Generate(tc);
  const apq::Table* li = cat->GetTable("lineitem");
  const apq::Column* ship = li->GetColumn("l_shipdate");
  const apq::Column* price = li->GetColumn("l_extendedprice");
  const apq::Column* disc = li->GetColumn("l_discount");
  // The predicate Tpch::Q6Selectivity(kMatch) uses, so the served
  // `RUN Q6 sel=0.5` runs the same fetch-join plan.
  const int64_t hi =
      apq::kTpchDate0 + static_cast<int64_t>(kMatch * apq::kTpchDateSpan);
  const apq::Predicate pred = apq::Predicate::RangeI64(apq::kTpchDate0, hi - 1);
  apq::PlanBuilder sb("ledger_select");
  const apq::QueryPlan select_plan = sb.Result(sb.Select(ship, pred));
  const apq::QueryPlan fetch_plan =
      apq::Tpch::Q6Selectivity(*cat, kMatch).ValueOrDie();

  // Reference: plain loops.
  uint64_t want_rows = 0;
  double want_sum = 0;
  for (uint64_t i = 0; i < ship->size(); ++i) {
    const int64_t v = ship->i64()[i];
    if (v >= apq::kTpchDate0 && v <= hi - 1) {
      ++want_rows;
      want_sum += price->f64()[i] * disc->f64()[i];
    }
  }
  auto check_result = [&](const apq::Intermediate& r, bool select,
                          const std::string& layer) {
    if (select) {
      check(r.kind == apq::Intermediate::Kind::kRowIds &&
                r.rowids.size() == want_rows,
            layer + " select rows " + std::to_string(r.NumRows()));
    } else {
      const double got = r.kind == apq::Intermediate::Kind::kScalar
                             ? r.scalar
                             : (r.agg_vals.empty() ? NAN : r.agg_vals[0]);
      check(std::fabs(got - want_sum) <= kSumRelTol * std::fabs(want_sum),
            layer + " fetch-join sum");
    }
  };

  std::vector<Row> rows;
  const apq::simd::SimdOps* ops = &apq::simd::Resolve(apq::simd::SimdLevel::kAuto);
  {
    Row r{"kernel (SelectDense; + 2 GatherRows), reused buffers"};
    std::vector<apq::oid> ids, head;
    ids.reserve(ship->size());
    apq::ValueVec vals;
    vals.type = apq::DataType::kFloat64;
    r.select_ms = MedianMs(kReps, [&] {
      ids.clear();
      apq::SelectDense(*ship, ship->full_range(), pred, nullptr, &ids, ops);
    });
    check(ids.size() == want_rows, "kernel select rows");
    r.fetch_ms = MedianMs(kReps, [&] {
      ids.clear();
      apq::SelectDense(*ship, ship->full_range(), pred, nullptr, &ids, ops);
      for (const apq::Column* c : {price, disc}) {
        head.clear();
        vals.f64.clear();
        check(apq::GatherRows(*c, ids, c->full_range(), false,
                              apq::AlignPolicy::kStrict, &head, &vals, ops)
                  .ok(),
              "kernel gather");
      }
    });
    rows.push_back(r);
  }

  auto eval_row = [&](const std::string& layer, apq::Evaluator& ev) {
    Row r{layer};
    for (bool select : {true, false}) {
      const apq::QueryPlan& plan = select ? select_plan : fetch_plan;
      apq::EvalResult res;
      const double ms = MedianMs(kReps, [&] {
        res = apq::EvalResult();
        check(ev.Execute(plan, &res).ok(), layer + " execute");
      });
      check_result(res.result, select, layer);
      (select ? r.select_ms : r.fetch_ms) = ms;
    }
    rows.push_back(r);
  };
  {
    apq::Evaluator whole;
    eval_row("evaluator whole-column (Evaluator::Execute)", whole);
  }
  apq::ExecOptions mo;
  mo.use_morsels = true;
  for (int w : {1, HostThreads()}) {
    apq::Evaluator ev(mo);
    ev.set_morsel_scheduler(std::make_shared<apq::MorselScheduler>(w));
    eval_row("morsels x" + std::to_string(w), ev);
  }
  {
    Row r{"converged adaptive plan (RunAdaptive, sim 4 cores; RunPlan)"};
    apq::Engine engine(apq::EngineConfig::WithSim(apq::SimConfig::Cores(4, 4)));
    for (bool select : {true, false}) {
      auto o = engine.RunAdaptive(select ? select_plan : fetch_plan);
      check(o.ok(), "RunAdaptive");
      if (!o.ok()) continue;
      const apq::QueryPlan gme = o.ValueOrDie().gme_plan;
      apq::Intermediate last;
      const double ms = MedianMs(kReps, [&] {
        auto rr = engine.RunPlan(gme);
        check(rr.ok(), "converged RunPlan");
        if (rr.ok()) last = rr.ValueOrDie().result;
      });
      // A converged select plan returns its row ids through a union of
      // clones; check the count only for the scalar shape.
      if (!select) check_result(last, false, "converged");
      (select ? r.select_ms : r.fetch_ms) = ms;
    }
    rows.push_back(r);
  }
  {
    Row r{"served (RUN Q6 sel=0.5 over loopback, one client)"};
    apq::service::QueryService svc;
    const apq::Status st = svc.Start(cat, apq::service::ServiceConfig());
    check(st.ok(), "service start");
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(svc.port()));
    if (st.ok() &&
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      std::string block;
      r.fetch_ms = MedianMs(kReps, [&] {
        block = RoundTrip(fd, "RUN Q6 sel=0.5 tag=1\n");
      });
      check(block.rfind("OK ", 0) == 0, "served response: " + block.substr(0, 60));
    } else {
      check(false, "connect to the service");
    }
    ::close(fd);
    svc.Stop();
    rows.push_back(r);
  }

  std::ostringstream md;
  md << "Layer ledger: " << kRows << " lineitem rows, seed " << args.seed
     << ", " << kMatch * 100 << "% selectivity, host threads "
     << HostThreads() << ", medians of " << kReps << " runs after one warm "
     << "run.\nRatio = this layer / the layer above it in the table "
     << "(both bases in ms).\n\n"
     << "| layer | select | ratio | fetch-join | ratio |\n"
     << "|---|---|---|---|---|\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const Row* below = i > 0 ? &rows[i - 1] : nullptr;
    md << "| " << r.layer << " | " << Cell(r.select_ms) << " | "
       << (below ? Ratio(r.select_ms, below->select_ms) : "—") << " | "
       << Cell(r.fetch_ms) << " | "
       << (below ? Ratio(r.fetch_ms, below->fetch_ms) : "—") << " |\n";
  }
  std::printf("%s", md.str().c_str());
  WriteOutFile(args.out_dir, "ledger.md", md.str());
  if (errors > 0) std::fprintf(stderr, "perfbench: %d ledger checks failed\n", errors);
  return errors == 0 ? 0 : 1;
}

}  // namespace perfbench
