// The repo benchmark's binary. Usage (normally through run.py, which
// builds it first):
//
//   perfbench --workload <tpch_embedded|adaptive_converge|served_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--process <i>]
//   perfbench --selftest
//   perfbench --ledger [--seed <n>]
//
// The last line of standard output is the run's result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Every process also writes .bench_out/<workload>-seed<n>-
// trace<t>-p<i>.json (metrics, host facts, checks), and a traced one its
// spans.
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>

#include "common.h"
#include "spans.h"
#include "workloads.h"

namespace {

std::string RecordJson(const perfbench::Args& args,
                       const perfbench::RunOutcome& r,
                       const perfbench::SpanRecorder& spans) {
  using perfbench::JsonEscape;
  using perfbench::JsonNumber;
  std::ostringstream os;
  os << "{\"workload\": \"" << JsonEscape(args.workload)
     << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ",\n \"host\": " << perfbench::HostJson()
     << ",\n \"result\": " << perfbench::ResultLine(r) << ",\n \"details\": {";
  bool first = true;
  for (const auto& [k, v] : r.details) {
    os << (first ? "" : ", ") << "\"" << JsonEscape(k) << "\": " << v;
    first = false;
  }
  os << "},\n \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    os << (i ? ", " : "") << "\"" << JsonEscape(r.errors[i]) << "\"";
  }
  os << "],\n \"span_totals_ms\": {";
  first = true;
  for (const auto& [name, t] : spans.Summarize()) {
    os << (first ? "" : ", ") << "\"" << JsonEscape(name)
       << "\": {\"count\": " << t.count
       << ", \"total_ms\": " << JsonNumber(t.total_ms)
       << ", \"self_ms\": " << JsonNumber(t.self_ms) << "}";
    first = false;
  }
  os << "}}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  const std::string err = perfbench::ParseArgs(argc, argv, &args);
  if (!err.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  perfbench::WarnAboutKnobs();
  try {
    if (args.mode == "selftest") return perfbench::RunSelfTest();
    if (args.mode == "ledger") return perfbench::RunLedger(args);

    perfbench::SpanRecorder spans(args.trace);
    perfbench::RunOutcome r;
    if (args.workload == "tpch_embedded") {
      r = perfbench::RunTpchEmbedded(args, &spans);
    } else if (args.workload == "adaptive_converge") {
      r = perfbench::RunAdaptiveConverge(args, &spans);
    } else if (args.workload == "served_mix") {
      r = perfbench::RunServedMix(args, &spans);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    if (r.attempted == 0) r.Fail("no operation was attempted");
    const std::string stem = args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + "-p" +
                             std::to_string(args.process);
    perfbench::WriteOutFile(args.out_dir, stem + ".json",
                            RecordJson(args, r, spans));
    if (args.trace) {
      perfbench::WriteOutFile(args.out_dir, stem + ".spans.json", spans.Json());
    }
    std::printf("%s\n", perfbench::ResultLine(r).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: aborted: %s\n", e.what());
    return 1;
  }
}
