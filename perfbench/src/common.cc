#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "exec/simd/simd_ops.h"

extern char** environ;

namespace perfbench {

namespace {

// Captured during static initialisation, before main runs: the origin of
// setup_s ("cold set-up, from the process's start").
const auto kProcessStart = std::chrono::steady_clock::now();

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool IsKnob(const std::string& name) {
  return name.rfind("APQ_", 0) == 0 || name == "GLIBC_TUNABLES" ||
         name.rfind("MALLOC_", 0) == 0;
}

std::vector<std::string> KnobsInEnvironment() {
  std::vector<std::string> found;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string kv = *e;
    if (IsKnob(kv.substr(0, kv.find('=')))) found.push_back(kv);
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

std::string ParseArgs(int argc, char** argv, Args* out) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      out->mode = "selftest";
      continue;
    }
    if (a == "--ledger") {
      out->mode = "ledger";
      continue;
    }
    if (i + 1 >= argc) return "missing value after " + a;
    const char* v = argv[++i];
    uint64_t n = 0;
    if (a == "--workload") {
      out->workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      if (!ParseU64(v, &out->seed)) return "bad --seed '" + std::string(v) + "'";
    } else if (a == "--seconds") {
      if (!ParseU64(v, &n) || n < 1 || n > 3600) {
        return "bad --seconds '" + std::string(v) + "'";
      }
      out->seconds = static_cast<double>(n);
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return "bad --trace '" + std::string(v) + "' (expected 0 or 1)";
      }
      out->trace = v[0] == '1';
    } else if (a == "--process") {
      if (!ParseU64(v, &n) || n > 64) return "bad --process '" + std::string(v) + "'";
      out->process = static_cast<int>(n);
    } else if (a == "--out-dir") {
      out->out_dir = v;
    } else {
      return "unknown argument " + a;
    }
  }
  if (out->mode == "run" && !have_workload) return "--workload is required";
  return "";
}

double ProcessSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_minflt);
}

int HostThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double RelativeIqr(std::vector<double> v) {
  if (v.size() < 4) return 0;
  std::sort(v.begin(), v.end());
  const double med = Median(v);
  if (med == 0) return 0;
  return (Percentile(v, 0.75) - Percentile(v, 0.25)) / med;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

void RunOutcome::Fail(const std::string& what) {
  correct = false;
  errors.push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultLine(const RunOutcome& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics.values()) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << JsonEscape(name) << "\": {\"value\": "
       << JsonNumber(vu.first) << ", \"unit\": \"" << JsonEscape(vu.second)
       << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string HostJson() {
  std::ostringstream os;
  os << "{\"host_threads\": " << HostThreads() << ", \"simd_tier\": \""
     << apq::simd::LevelName(
            apq::simd::Resolve(apq::simd::SimdLevel::kAuto).level)
     << "\", \"compiler\": \"" << JsonEscape(__VERSION__)
     << "\", \"knobs_in_environment\": [";
  bool first = true;
  for (const std::string& kv : KnobsInEnvironment()) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << JsonEscape(kv) << "\"";
  }
  os << "]}";
  return os.str();
}

void WarnAboutKnobs() {
  for (const std::string& kv : KnobsInEnvironment()) {
    std::fprintf(stderr,
                 "perfbench: note: %s is set in the environment; the "
                 "benchmark sets no such knob, so these figures are not the "
                 "default configuration's\n",
                 kv.c_str());
  }
}

bool WriteOutFile(const std::string& out_dir, const std::string& name,
                  const std::string& body) {
  ::mkdir(out_dir.c_str(), 0755);  // EEXIST is fine; open() reports the rest
  const std::string path = out_dir + "/" + name;
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return false;
  }
  f << body;
  return static_cast<bool>(f);
}

}  // namespace perfbench
