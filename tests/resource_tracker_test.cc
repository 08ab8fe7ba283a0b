// Per-query resource accounting (obs/resource_tracker.h): charge/uncharge
// units and the zero-drift discipline, operator-block scoping, task billing,
// the engine-level lifecycle (snapshot into the profile document, retire),
// scheduler worker-health telemetry, the APQ_QUERY_LOG parser, and the
// determinism contract — accounting on vs off must be bit-identical over
// the TPC-H suite at every worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/compare.h"
#include "exec/evaluator.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/resource_tracker.h"
#include "plan/builder.h"
#include "sched/morsel_scheduler.h"
#include "util/hash_clock.h"
#include "workload/tpch.h"

namespace apq {
namespace {

// Restores the accounting switch no matter how a test exits (it is global
// process state; other suites assume the default ON).
class AccountingGuard {
 public:
  ~AccountingGuard() { obs::SetAccountingEnabled(true); }
};

// ---- charge/uncharge units --------------------------------------------------

TEST(ResourceTrackerTest, DisabledSitesAreNoOps) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(false);
  const size_t live = obs::LiveQueryResourceCount();
  obs::QueryIdScope qid(obs::NextQueryId());
  obs::ChargeBytes(1 << 20);
  obs::ChargeTransient(1 << 20);
  obs::BillTask(obs::CurrentQueryId(), nullptr, 1e6, 1e3);
  // No block was ever created, so there is nothing to snapshot or leak.
  EXPECT_EQ(obs::LiveQueryResourceCount(), live);
  obs::QueryResources qr;
  EXPECT_FALSE(obs::SnapshotQueryResources(obs::CurrentQueryId(), &qr));
}

TEST(ResourceTrackerTest, ChargesLandOnQueryAndProcessGauges) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  obs::Gauge* cur =
      obs::MetricsRegistry::Global().GetGauge("apq_mem_current_bytes");
  const uint64_t id = obs::NextQueryId();
  obs::QueryIdScope qid(id);
  const int64_t cur0 = cur->Value();

  obs::ChargeBytes(4096);
  obs::ChargeBytes(4096);
  EXPECT_EQ(cur->Value(), cur0 + 8192);
  obs::UnchargeBytes(4096);

  obs::QueryResources qr;
  ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr));
  EXPECT_EQ(qr.cur_bytes, 4096u);
  EXPECT_EQ(qr.peak_bytes, 8192u);

  obs::UnchargeBytes(4096);
  ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr));
  EXPECT_EQ(qr.cur_bytes, 0u);  // zero drift
  EXPECT_EQ(qr.peak_bytes, 8192u);
  EXPECT_EQ(cur->Value(), cur0);

  obs::FinishQuery(id);
  EXPECT_FALSE(obs::SnapshotQueryResources(id, &qr));
}

TEST(ResourceTrackerTest, TransientChargesRaisePeakNotCurrent) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  const uint64_t id = obs::NextQueryId();
  obs::QueryIdScope qid(id);
  obs::ChargeTransient(1 << 16);
  obs::QueryResources qr;
  ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr));
  EXPECT_EQ(qr.cur_bytes, 0u);
  EXPECT_EQ(qr.peak_bytes, static_cast<uint64_t>(1 << 16));
  obs::FinishQuery(id);
}

TEST(ResourceTrackerTest, ScopedMemChargeReleasesOnEveryPath) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  const uint64_t id = obs::NextQueryId();
  obs::QueryIdScope qid(id);
  {
    obs::ScopedMemCharge mc(1000);
    mc.Add(500);
    mc.AssumeCharged(0);
    EXPECT_EQ(mc.held(), 1500u);
    mc.Release();
    EXPECT_EQ(mc.held(), 0u);
    mc.Release();  // idempotent
    mc.Add(250);   // destructor releases the rest
  }
  obs::QueryResources qr;
  ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr));
  EXPECT_EQ(qr.cur_bytes, 0u);
  EXPECT_EQ(qr.peak_bytes, 1500u);
  obs::FinishQuery(id);
}

// AssumeCharged adopts bytes charged elsewhere (the sort-run pattern: run
// tasks ChargeBytes durably, the operator's guard owns the one uncharge).
TEST(ResourceTrackerTest, AssumeChargedAdoptsWithoutDoubleCharging) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  const uint64_t id = obs::NextQueryId();
  obs::QueryIdScope qid(id);
  {
    obs::ChargeBytes(2048);  // "the run tasks"
    obs::ScopedMemCharge mc;
    mc.AssumeCharged(2048);
  }
  obs::QueryResources qr;
  ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr));
  EXPECT_EQ(qr.cur_bytes, 0u);
  EXPECT_EQ(qr.peak_bytes, 2048u);
  obs::FinishQuery(id);
}

// ---- operator blocks --------------------------------------------------------

TEST(ResourceTrackerTest, OpAcctScopeNestsAndCollectsCharges) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  EXPECT_EQ(obs::CurrentOpAcct(), nullptr);
  obs::OpAcct outer, inner;
  {
    obs::OpAcctScope so(&outer);
    EXPECT_EQ(obs::CurrentOpAcct(), &outer);
    obs::ChargeTransient(100);
    {
      obs::OpAcctScope si(&inner);
      EXPECT_EQ(obs::CurrentOpAcct(), &inner);
      obs::ChargeTransient(300);
    }
    EXPECT_EQ(obs::CurrentOpAcct(), &outer);
  }
  EXPECT_EQ(obs::CurrentOpAcct(), nullptr);
  EXPECT_EQ(outer.peak_bytes.load(), 100u);
  EXPECT_EQ(inner.peak_bytes.load(), 300u);
  EXPECT_EQ(outer.cur_bytes.load(), 0u);
  EXPECT_EQ(inner.cur_bytes.load(), 0u);
}

TEST(ResourceTrackerTest, BillTaskClampsAndAccumulates) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  const uint64_t id = obs::NextQueryId();
  obs::OpAcct acct;
  obs::BillTask(id, &acct, 1000.0, 50.0);
  obs::BillTask(id, &acct, -5.0, -5.0);  // clock skew clamps to zero
  obs::BillTask(0, nullptr, 1e9, 1e9);   // unowned: dropped entirely
  EXPECT_EQ(acct.cpu_ns.load(), 1000u);
  EXPECT_EQ(acct.queue_wait_ns.load(), 50u);
  EXPECT_EQ(acct.tasks.load(), 2u);
  obs::QueryResources qr;
  ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr));
  EXPECT_EQ(qr.cpu_ns, 1000u);
  EXPECT_EQ(qr.queue_wait_ns, 50u);
  EXPECT_EQ(qr.tasks, 2u);
  obs::FinishQuery(id);
}

// ---- APQ_QUERY_LOG parsing --------------------------------------------------

TEST(ResourceTrackerTest, ParseQueryLogCapacityIsStrict) {
  EXPECT_EQ(obs::ParseQueryLogCapacity("64"), 64u);
  EXPECT_EQ(obs::ParseQueryLogCapacity("1"), 1u);
  EXPECT_EQ(obs::ParseQueryLogCapacity("1048576"), 1048576u);
  EXPECT_EQ(obs::ParseQueryLogCapacity("0"), 0u);
  EXPECT_EQ(obs::ParseQueryLogCapacity("1048577"), 0u);
  EXPECT_EQ(obs::ParseQueryLogCapacity("-1"), 0u);
  EXPECT_EQ(obs::ParseQueryLogCapacity("64x"), 0u);
  EXPECT_EQ(obs::ParseQueryLogCapacity("abc"), 0u);
  EXPECT_EQ(obs::ParseQueryLogCapacity(""), 0u);
  EXPECT_EQ(obs::ParseQueryLogCapacity(nullptr), 0u);
}

// ---- evaluator-level zero drift and CPU attribution -------------------------

// Execute a morselized TPC-H query under an owning query id at every worker
// count: all durable charges must return to zero by the time Execute
// returns, the peak must be visible, and the billed CPU must be bounded by
// the parallelism actually available.
TEST(ResourceTrackerTest, EvaluatorChargesReturnToZeroAcrossWorkerCounts) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);

  for (const char* qname : {"Q6", "Q14"}) {
    auto plan = Tpch::Query(*cat, qname);
    ASSERT_TRUE(plan.ok()) << qname;
    for (int workers : {1, 2, 4, 8}) {
      ExecOptions o;
      o.use_morsels = true;
      o.morsel_rows = 512;
      o.morsel_workers = workers;
      Evaluator ev(o);

      const uint64_t id = obs::NextQueryId();
      EvalResult er;
      const double t0 = NowNs();
      {
        obs::QueryIdScope qid(id);
        ASSERT_TRUE(ev.Execute(plan.ValueOrDie(), &er).ok())
            << qname << " workers=" << workers;
      }
      const double wall = NowNs() - t0;

      obs::QueryResources qr;
      ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr))
          << qname << " workers=" << workers;
      EXPECT_EQ(qr.cur_bytes, 0u)
          << qname << " workers=" << workers << " (charge drift!)";
      EXPECT_GT(qr.peak_bytes, 0u) << qname << " workers=" << workers;
      EXPECT_GT(qr.cpu_ns, 0u) << qname << " workers=" << workers;

      // Query CPU covers every operator's billed CPU (each bill lands on
      // both the operator block and the query block).
      uint64_t max_op_cpu = 0;
      for (const auto& m : er.metrics) {
        max_op_cpu = std::max(max_op_cpu, m.cpu_ns);
      }
      EXPECT_GE(qr.cpu_ns, max_op_cpu) << qname << " workers=" << workers;
      // And cannot exceed what the fleet (workers + the submitting thread)
      // could physically have executed inside the query's wall time; 1.25x
      // covers timer-granularity noise on short ops.
      EXPECT_LE(static_cast<double>(qr.cpu_ns),
                (workers + 1) * wall * 1.25)
          << qname << " workers=" << workers;

      obs::FinishQuery(id);
      EXPECT_FALSE(obs::SnapshotQueryResources(id, &qr));
    }
  }
}

TEST(ResourceTrackerTest, MorselTasksBillTheOperatorOutsideAnEngineQuery) {
  // A bare Evaluator::Execute runs under query id 0. Its scheduler tasks
  // still bill the operator block, so a morselized operator reports its
  // tasks' cpu_ns and queue wait as it does under an Engine query (an
  // unbilled operator falls back to its wall time and no queue wait).
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  ASSERT_EQ(obs::CurrentQueryId(), 0u);
  std::vector<int64_t> vals(20000);
  for (size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<int64_t>(i % 1000);
  }
  auto col = Column::MakeInt64("c", std::move(vals));
  PlanBuilder b("bare");
  const int s = b.Select(col.get(), Predicate::RangeI64(0, 499));
  QueryPlan plan = b.Result(s);

  ExecOptions o;
  o.use_morsels = true;
  o.morsel_rows = 512;
  o.morsel_workers = 2;
  Evaluator ev(o);
  if (ev.EffectiveMorselRows() >= 20000) {
    GTEST_SKIP() << "a forced morsel size leaves the table in one morsel";
  }
  EvalResult er;
  ASSERT_TRUE(ev.Execute(plan, &er).ok());
  bool saw_select = false;
  for (const auto& m : er.metrics) {
    if (m.kind != OpKind::kSelect) continue;
    saw_select = true;
    ASSERT_FALSE(m.morsels.empty());
    EXPECT_GT(m.cpu_ns, 0u);
    EXPECT_GT(m.queue_wait_ns, 0u);
  }
  EXPECT_TRUE(saw_select);
}

// ---- scheduler worker-health telemetry --------------------------------------

TEST(ResourceTrackerTest, WorkerOccupancyIsBoundedByUptime) {
  for (int workers : {1, 2, 4, 8}) {
    MorselScheduler sched(workers);
    for (int j = 0; j < 4; ++j) {
      sched.ParallelFor(256, [](size_t i, int) {
        volatile uint64_t x = i;
        for (int k = 0; k < 100; ++k) x = x * 2654435761u + k;
      });
    }
    // Read stats before uptime: busy only grows, so busy <= uptime holds
    // strictly in this order.
    const auto stats = sched.worker_stats();
    const uint64_t caller_busy = sched.caller_busy_ns();
    const double uptime = sched.uptime_ns();
    ASSERT_EQ(static_cast<int>(stats.size()), workers);
    uint64_t total_busy = 0;
    for (const auto& ws : stats) {
      EXPECT_LE(static_cast<double>(ws.busy_ns), uptime)
          << "workers=" << workers;
      EXPECT_LE(ws.steals, ws.tasks);
      total_busy += ws.busy_ns;
    }
    // Something executed somewhere (workers or the submitting thread).
    EXPECT_GT(total_busy + caller_busy, 0u) << "workers=" << workers;
    EXPECT_EQ(sched.total_tasks(), 4u * 256u);
  }
}

TEST(ResourceTrackerTest, DebugJsonCarriesWorkerListAndFlight) {
  MorselScheduler sched(2);
  sched.ParallelFor(64, [](size_t, int) {});
  const std::string json = sched.DebugJson();
  for (const char* needle :
       {"\"workers\":2", "\"uptime_ns\":", "\"pending\":",
        "\"caller_tasks\":", "\"caller_busy_ns\":", "\"total_tasks\":",
        "\"worker_list\":[", "\"steal_fails\":", "\"busy_ns\":",
        "\"idle_ns\":", "\"flight\":["}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << " in "
                                                    << json;
  }
  // The process-wide document wraps every live scheduler.
  const std::string all = MorselScheduler::WorkersJson();
  EXPECT_NE(all.find("{\"schedulers\":["), std::string::npos);
  EXPECT_NE(all.find("\"worker_list\":["), std::string::npos);
}

// ---- engine lifecycle -------------------------------------------------------

// The engine snapshots the block into the profile document and the query
// record, then retires it: live block count returns to its baseline, and
// the recorded surfaces carry the resource fields.
TEST(ResourceTrackerTest, EngineRecordsResourcesAndRetiresBlocks) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  obs::QueryLog::Global().Clear();

  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);
  auto q6 = Tpch::Q6(*cat);
  ASSERT_TRUE(q6.ok());

  EngineConfig ecfg = EngineConfig::WithSim(SimConfig::Cores(8, 4));
  ecfg.use_morsels = true;
  ecfg.morsel_rows = 512;
  ecfg.morsel_workers = 4;
  Engine engine(ecfg);

  const size_t live0 = obs::LiveQueryResourceCount();
  auto out = engine.RunSerial(q6.ValueOrDie());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(obs::LiveQueryResourceCount(), live0)
      << "engine leaked a query accounting block";

  const auto snap = obs::QueryLog::Global().Snapshot();
  ASSERT_FALSE(snap.empty());
  EXPECT_EQ(snap[0].id, out.ValueOrDie().query_id);
  EXPECT_GT(snap[0].peak_bytes, 0u);
  EXPECT_GT(snap[0].cpu_ns, 0.0);

  std::string profile;
  ASSERT_TRUE(
      obs::QueryLog::Global().FindProfile(snap[0].id, &profile));
  for (const char* needle :
       {"\"peak_bytes\":", "\"cpu_ns\":", "\"queue_wait_ns\":",
        "\"workers\":4", "\"parallel_efficiency\":"}) {
    EXPECT_NE(profile.find(needle), std::string::npos) << needle;
  }
  // Per-operator attribution made it into the ops array too.
  EXPECT_NE(profile.find("\"ops\":["), std::string::npos);
  obs::QueryLog::Global().Clear();
}

// ---- determinism: accounting must never perturb results ---------------------

TEST(ResourceTrackerTest, TpchSuiteBitIdenticalAccountingOnAndOff) {
  AccountingGuard guard;
  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);

  for (const auto& name : Tpch::QueryNames()) {
    auto plan = Tpch::Query(*cat, name);
    ASSERT_TRUE(plan.ok()) << name;

    // Baseline: accounting off, whole-column kernels.
    obs::SetAccountingEnabled(false);
    Evaluator base_ev(ExecOptions{});
    EvalResult base;
    ASSERT_TRUE(base_ev.Execute(plan.ValueOrDie(), &base).ok()) << name;

    for (int workers : {1, 2, 4, 8}) {
      ExecOptions o;
      o.use_morsels = true;
      o.morsel_rows = 512;
      o.morsel_workers = workers;

      obs::SetAccountingEnabled(false);
      Evaluator off_ev(o);
      EvalResult off;
      ASSERT_TRUE(off_ev.Execute(plan.ValueOrDie(), &off).ok())
          << name << " workers=" << workers;

      obs::SetAccountingEnabled(true);
      const uint64_t id = obs::NextQueryId();
      Evaluator on_ev(o);
      EvalResult on;
      {
        obs::QueryIdScope qid(id);
        ASSERT_TRUE(on_ev.Execute(plan.ValueOrDie(), &on).ok())
            << name << " workers=" << workers;
      }
      obs::FinishQuery(id);

      EXPECT_EQ(DiffIntermediates(base.result, off.result), "")
          << name << " workers=" << workers;
      EXPECT_EQ(DiffIntermediates(off.result, on.result), "")
          << name << " workers=" << workers
          << " (accounting changed results!)";
      ASSERT_EQ(off.metrics.size(), on.metrics.size());
      for (size_t i = 0; i < off.metrics.size(); ++i) {
        EXPECT_EQ(off.metrics[i].tuples_out, on.metrics[i].tuples_out)
            << name << " workers=" << workers << " op " << i;
      }
    }
  }
}

}  // namespace
}  // namespace apq
