// Workload served_mix: independent users sending queries to the served
// front end. An open loop (seeded Poisson arrivals at one fixed rate, well
// under capacity) over loopback TCP; 70% short selects, 30% heavy analytics.
// Short queries execute in about a millisecond here, so parse, admission,
// the reader thread, serialization and the socket are a visible share of
// their latency. The only workload that exercises src/service/.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "exec/morsel_source.h"
#include "reference.h"
#include "sched/morsel_scheduler.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "service_client.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace perfbench {

namespace {

// 200K lineitem rows: the catalog fits in the last-level cache.
constexpr uint64_t kLineitemRows = 200'000;
// Arrivals per second. At 120/s the 4-executor service on a 4-thread host
// sheds nothing and stays well under capacity.
constexpr double kRatePerSec = 120;
// The mix: 70% short (Q6, Q14), 30% heavy (Q4, Q9, Q19), in shuffled
// rounds of kMixRound requests holding each query kMixShare[i] times, so
// every run sends the same number of each query.
const char* const kMix[] = {"Q6", "Q14", "Q4", "Q9", "Q19"};
const int kMixShare[] = {7, 7, 2, 2, 2};
constexpr int kMixRound = 20;
// Warm-up: every mix query this many times per executor, before timing.
constexpr int kWarmupPerExecutor = 2;
// Response wait after the last scheduled send before giving up.
constexpr double kDrainTimeoutMs = 20'000;

bool IsShort(const std::string& q) { return q == "Q6" || q == "Q14"; }

struct Request {
  uint64_t tag = 0;
  std::string query;
  double due_ms = 0;   // scheduled send time
  double sent_ms = 0;  // actual send time
};

}  // namespace

std::vector<std::string> ServedAccountingErrors(
    uint64_t sent, const std::vector<uint64_t>& tags,
    const apq::service::ServiceStats& stats) {
  std::vector<std::string> errs;
  std::vector<int> seen(sent, 0);
  for (uint64_t t : tags) {
    if (t >= sent) {
      errs.push_back("response for unknown tag " + std::to_string(t));
    } else if (++seen[t] == 2) {
      errs.push_back("tag " + std::to_string(t) + " answered twice");
    }
  }
  for (uint64_t t = 0; t < sent; ++t) {
    if (seen[t] == 0) {
      errs.push_back("tag " + std::to_string(t) + " never answered");
      break;
    }
  }
  if (stats.requests_total != sent || stats.responses_total != sent) {
    errs.push_back("conservation: sent " + std::to_string(sent) +
                   ", requests_total " + std::to_string(stats.requests_total) +
                   ", responses_total " + std::to_string(stats.responses_total));
  }
  if (stats.admission.admitted_total != stats.admission.completed_total) {
    errs.push_back("conservation: admitted_total " +
                   std::to_string(stats.admission.admitted_total) +
                   " != completed_total " +
                   std::to_string(stats.admission.completed_total));
  }
  if (stats.admission.shed_total != 0 || stats.exec_errors_total != 0) {
    errs.push_back("shed " + std::to_string(stats.admission.shed_total) +
                   ", exec errors " + std::to_string(stats.exec_errors_total));
  }
  return errs;
}

RunOutcome RunServedMix(const Args& args, SpanRecorder* spans) {
  if (args.trace) return RunLayers(args, kLineitemRows, spans);
  RunOutcome out;
  const int nconn = std::min(HostThreads(), 4);

  // ---- set-up: generate, start the service, connect, warm up -------------
  apq::TpchConfig tc;
  tc.lineitem_rows = kLineitemRows;
  tc.seed = args.seed;
  const std::shared_ptr<apq::Catalog> cat = apq::Tpch::Generate(tc);
  apq::service::QueryService svc;
  apq::service::ServiceConfig cfg;  // defaults; no APQ_SERVICE_* knob read
  apq::Status st = svc.Start(cat, cfg);
  if (!st.ok()) {
    out.Fail("service start: " + st.ToString());
    return out;
  }
  Client client;
  std::string err = client.Connect(svc.port(), nconn);
  if (!err.empty()) {
    out.Fail(err);
    return out;
  }

  std::vector<Request> reqs;
  std::vector<Response> resps;
  std::atomic<double> deadline{0};
  // Sends reqs[from..) on their schedule while a reader thread collects the
  // responses. Returns false if a send failed.
  auto exchange = [&](size_t from) {
    deadline = 1e300;
    const size_t expect = reqs.size();
    std::thread reader([&] { client.Receive(expect, &deadline, &resps); });
    bool sent_all = true;
    for (size_t i = from; i < reqs.size(); ++i) {
      Request& r = reqs[i];
      const double wait = r.due_ms - NowMs();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
      }
      r.sent_ms = NowMs();
      if (!client.Send(i, "RUN " + r.query + " tag=" + std::to_string(r.tag) + "\n")) {
        sent_all = false;
        break;
      }
    }
    deadline = NowMs() + kDrainTimeoutMs;
    reader.join();
    return sent_all;
  };

  // Warm-up: every executor's engine builds its hash caches here.
  const int executors = cfg.max_concurrent;
  for (int k = 0; k < kWarmupPerExecutor * executors; ++k) {
    for (const char* q : kMix) {
      reqs.push_back({reqs.size(), q, NowMs(), 0});
    }
  }
  if (!exchange(0)) out.Fail("warm-up send failed");
  const size_t warm = reqs.size();
  const double setup_s = ProcessSeconds();

  // ---- the measured open loop ----------------------------------------------
  // Each process of a run replays its own arrival schedule.
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ULL + 7 + args.process);
  std::exponential_distribution<double> gap_s(kRatePerSec);
  std::vector<const char*> round;
  for (size_t k = 0; k < std::size(kMix); ++k) {
    round.insert(round.end(), kMixShare[k], kMix[k]);
  }
  const size_t n = static_cast<size_t>(kRatePerSec * args.seconds) /
                   kMixRound * kMixRound;
  const double t0 = NowMs() + 50;
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % kMixRound == 0) std::shuffle(round.begin(), round.end(), rng);
    t += gap_s(rng) * 1e3;
    reqs.push_back({reqs.size(), round[i % kMixRound], t0 + t, 0});
  }
  if (!exchange(warm)) out.Fail("send failed");
  svc.Stop();
  const apq::service::ServiceStats stats = svc.Stats();
  out.attempted = n;

  // ---- checks ---------------------------------------------------------------
  std::vector<uint64_t> tags;
  for (const Response& r : resps) tags.push_back(r.tag);
  for (const std::string& e : ServedAccountingErrors(reqs.size(), tags, stats)) {
    out.Fail(e);
  }
  std::vector<const Response*> by_tag(reqs.size(), nullptr);
  for (const Response& r : resps) {
    if (r.tag < reqs.size() && by_tag[r.tag] == nullptr) by_tag[r.tag] = &r;
  }

  // Served ROW bytes against SerializeResult of a direct run at the same
  // morsel size (the service scales morsels by fleet / granted workers).
  auto fleet = std::make_shared<apq::MorselScheduler>(svc.config().morsel_workers);
  const int fleet_workers = fleet->num_workers();
  std::map<std::pair<std::string, int>, std::string> direct;
  std::map<std::string, Answer> ref;
  auto direct_rows = [&](const std::string& q, int factor) -> const std::string& {
    auto key = std::make_pair(q, factor);
    auto it = direct.find(key);
    if (it != direct.end()) return it->second;
    apq::EngineConfig ec;
    ec.use_morsels = true;
    ec.morsel_scheduler = fleet;
    ec.morsel_rows = apq::kDefaultMorselRows * static_cast<uint64_t>(factor);
    apq::Engine engine(ec);
    auto r = engine.RunPlan(apq::Tpch::Query(*cat, q).ValueOrDie());
    std::string rows;
    if (!r.ok()) {
      out.Fail("direct " + q + ": " + r.status().ToString());
    } else {
      if (!ref.count(q)) ref[q] = ReferenceTpch(*cat, q);
      const std::string d = CheckAnswer(r.ValueOrDie().result, ref[q]);
      if (!d.empty()) out.Fail("direct " + q + " vs reference: " + d);
      rows = apq::service::SerializeResult(r.ValueOrDie().result);
    }
    return direct.emplace(key, rows).first->second;
  };

  std::vector<double> short_ms, heavy_ms, late_ms, exec_ms, qwait_ms;
  std::map<std::string, std::vector<double>> lat_ms;
  // Per round of kMixRound requests: their summed latency (rounds with a
  // failed request are left out).
  std::vector<double> round_ms;
  double round_sum = 0;
  bool round_whole = true;
  std::map<std::string, bool> reported;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Request& q = reqs[i];
    const Response* r = by_tag[i];
    const bool measured = i >= warm;
    if (r == nullptr || !r->ok) {
      if (measured) {
        ++out.failed;
        round_whole = false;
      }
      if (r != nullptr && !reported["err"]) {
        reported["err"] = true;
        out.Fail("tag " + std::to_string(i) + ": " + r->header);
      }
    } else {
      const int factor = MorselFactor(fleet_workers, r->workers);
      if (r->rows != direct_rows(q.query, factor) && !reported[q.query]) {
        reported[q.query] = true;
        out.Fail("served " + q.query + " (workers=" + std::to_string(r->workers) +
                 ") differs from the direct run's SerializeResult");
      }
      if (measured) {
        const double lat = r->recv_ms - q.due_ms;
        lat_ms[q.query].push_back(lat);
        round_sum += lat;
        (IsShort(q.query) ? short_ms : heavy_ms).push_back(lat);
        late_ms.push_back(q.sent_ms - q.due_ms);
        if (IsShort(q.query)) {
          exec_ms.push_back(r->wall_ns / 1e6);
          qwait_ms.push_back(r->queue_wait_ns / 1e6);
        }
      }
    }
    if (measured && (i - warm) % kMixRound == kMixRound - 1) {
      if (round_whole) round_ms.push_back(round_sum);
      round_sum = 0;
      round_whole = true;
    }
  }

  const double span_s = (reqs.back().due_ms - reqs[warm].due_ms) / 1e3;
  std::vector<double> med;
  for (const char* q : kMix) {
    med.push_back(Median(lat_ms[q]));
    out.details[std::string("median_ms.") + q] = JsonNumber(med.back());
  }
  out.details["requests"] = std::to_string(n);
  out.details["short_samples"] = std::to_string(short_ms.size());
  out.details["heavy_samples"] = std::to_string(heavy_ms.size());
  out.details["short_p50_ms"] = JsonNumber(Percentile(short_ms, 0.50));
  out.details["short_p99_ms"] = JsonNumber(Percentile(short_ms, 0.99));
  out.details["heavy_p50_ms"] = JsonNumber(Percentile(heavy_ms, 0.50));
  out.details["heavy_p99_ms"] = JsonNumber(Percentile(heavy_ms, 0.99));
  out.details["offered_qps"] = JsonNumber(span_s > 0 ? (n - 1) / span_s : 0);
  out.details["generator_late_p50_ms"] = JsonNumber(Percentile(late_ms, 0.5));
  out.details["generator_late_p99_ms"] = JsonNumber(Percentile(late_ms, 0.99));
  out.details["generator_late_max_ms"] = JsonNumber(Percentile(late_ms, 1.0));
  const double slow = static_cast<double>(std::count_if(
      short_ms.begin(), short_ms.end(), [](double ms) { return ms > 30; }));
  out.details["short_over_30ms_share"] =
      JsonNumber(short_ms.empty() ? 0 : slow / static_cast<double>(short_ms.size()));
  out.details["short_exec_p50_ms"] = JsonNumber(Percentile(exec_ms, 0.5));
  out.details["short_queue_wait_p50_ms"] = JsonNumber(Percentile(qwait_ms, 0.5));
  out.details["connections"] = std::to_string(nconn);
  out.details["degraded_total"] = std::to_string(stats.degraded_total);
  out.details["promoted_total"] = std::to_string(stats.admission.promoted_total);

  out.metrics.Set("setup_s", setup_s, "s");
  out.metrics.Set("peak_rss_mb", PeakRssMb(), "MiB");
  out.metrics.Set("geomean_ms", GeoMean(med), "ms");
  out.metrics.Set("round_s", Median(round_ms) / 1e3, "s");
  return out;
}

}  // namespace perfbench
