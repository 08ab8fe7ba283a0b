// The benchmark's workloads and modes. Each workload builds its inputs from
// Args::seed, runs for Args::seconds, checks every result, and returns the
// end-to-end metrics (Args::trace = 0). Its traced run (= 1) is RunLayers
// over a catalog of the workload's size.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "service/query_service.h"
#include "spans.h"

namespace perfbench {

/// Closed loop, one client thread: Engine::RunPlan over the seven TPC-H
/// queries, morsels on over one fleet of HostThreads() workers, 4M lineitem
/// rows (a catalog far beyond the last-level cache).
RunOutcome RunTpchEmbedded(const Args& args, SpanRecorder* spans);

/// Engine::RunAdaptive from the serial plan to convergence for Q6, Q14, Q22
/// and the Fig 13 skewed select, then the converged and serial plans
/// repeatedly; 2M rows on a simulated 4-core machine.
RunOutcome RunAdaptiveConverge(const Args& args, SpanRecorder* spans);

/// Open loop (seeded Poisson arrivals at one fixed rate) against
/// service::QueryService over loopback; 70% short (Q6, Q14), 30% heavy
/// (Q4, Q9, Q19); 200K lineitem rows.
RunOutcome RunServedMix(const Args& args, SpanRecorder* spans);

/// The traced run of every workload: generates a TPC-H catalog with
/// `lineitem_rows` and a skewed table of as many rows from Args::seed, and
/// times each layer's public calls on them (kernel, evaluator, morsels,
/// engine, adaptive loop, heuristic plan, served front end), checking every
/// result, in whole rounds for Args::seconds. Returns the per-layer metrics,
/// each the median over the rounds.
RunOutcome RunLayers(const Args& args, uint64_t lineitem_rows,
                     SpanRecorder* spans);

/// The served run's accounting after QueryService::Stop(): every tag in
/// [0, sent) answered exactly once, requests_total == responses_total ==
/// sent, admitted_total == completed_total, nothing shed, no exec error.
/// Returns one message per violation.
std::vector<std::string> ServedAccountingErrors(
    uint64_t sent, const std::vector<uint64_t>& tags,
    const apq::service::ServiceStats& stats);

/// Corrupts one value, one count and one group order (and one served
/// stats record) and shows that each check rejects it. Returns the exit
/// code.
int RunSelfTest();

/// Prints the layer ledger for select and fetch-join (kernel -> evaluator
/// whole-column -> morsels x1 / xN -> converged adaptive plan -> served),
/// each row with its ratio to the layer below and both bases, and writes
/// it to out_dir/ledger.md. Returns the exit code.
int RunLedger(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
