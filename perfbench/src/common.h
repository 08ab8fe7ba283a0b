// Shared plumbing of the repo benchmark: arguments, clocks, statistics, the
// result line, and the per-run record written under .bench_out/.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string mode = "run";       // run | selftest | ledger
  /// Index of this process among the processes of one run (run.py starts
  /// several fresh processes and combines them; see README.md).
  int process = 0;
  std::string out_dir = ".bench_out";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1` plus the
/// `--selftest` / `--ledger` modes. Returns an error message or "".
std::string ParseArgs(int argc, char** argv, Args* out);

/// Seconds since this process started (its static initialisation, before
/// main): the clock of setup_s.
double ProcessSeconds();
double NowMs();

/// Peak resident set size of this process, in MiB (getrusage ru_maxrss).
double PeakRssMb();
/// Minor page faults of the whole process so far (getrusage ru_minflt).
uint64_t MinorFaults();

/// Hardware threads the benchmark sizes its fleets and clients to.
int HostThreads();

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);
double GeoMean(const std::vector<double>& v);
/// Interquartile range as a share of the median (0 for < 4 samples).
double RelativeIqr(std::vector<double> v);

/// Ordered metric set printed on the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// What one workload run produced.
struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  /// Every failed correctness check, one line each (written to stderr and
  /// to the run record; any entry makes `correct` false).
  std::vector<std::string> errors;
  /// Extra facts for the run record (JSON-valued, keyed by name).
  std::map<std::string, std::string> details;

  void Fail(const std::string& what);
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string ResultLine(const RunOutcome& r);

/// Environment facts the README asks every run to record: host threads,
/// SIMD tier, compiler, and any GLIBC_TUNABLES / MALLOC_* / APQ_* variable
/// found in the environment (the benchmark sets none of them).
std::string HostJson();
/// Warns on stderr about each such variable.
void WarnAboutKnobs();

std::string JsonEscape(const std::string& s);
std::string JsonNumber(double v);

/// Writes `body` to out_dir/name (creating out_dir). Returns false on error.
bool WriteOutFile(const std::string& out_dir, const std::string& name,
                  const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
