// Reference answers computed apart from the program: plain loops over the
// generated columns, sharing no operator, kernel or plan code with apq.
// Every workload checks each query result against them.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/intermediate.h"
#include "storage/table.h"

namespace perfbench {

/// Relative tolerance for floating sums: the program adds in another order
/// (morsels, clones, merges) than the reference's row-order loop.
constexpr double kSumRelTol = 1e-9;

/// \brief One expected query answer.
struct Answer {
  bool grouped = false;
  // Scalar answers.
  double scalar = 0;
  int64_t scalar_count = 0;
  // Grouped answers, in result order (after the query's ORDER BY).
  std::vector<int64_t> keys;
  std::vector<double> vals;
  std::vector<int64_t> counts;
  /// True when every value is an exact integer count (compared exactly).
  bool exact_vals = false;
};

/// The answer of TPC-H query `name` ("Q4".."Q22", as in workload/tpch.h)
/// over `cat`.
Answer ReferenceTpch(const apq::Catalog& cat, const std::string& name);

/// The answer of SkewedSelectPlan(cat, config, pct) over the "skewed" table:
/// sum and count of v over rows with 0 <= v <= hi.
Answer ReferenceSkewedSum(const apq::Catalog& cat, int64_t hi);

/// Compares `got` with `want`: counts, group keys and group order exactly,
/// floating values within kSumRelTol. A scalar answer also accepts a
/// one-group grouped result (the shape some parallel plans return). Returns
/// "" when equal, else the first difference.
std::string CheckAnswer(const apq::Intermediate& got, const Answer& want);

/// Cross-path identity: "" when `a` and `b` serialize to the same bytes
/// (service::SerializeResult, which is exact). When `float_bits_ok` is set,
/// grouped results whose keys, counts and order agree and whose floating
/// values differ only within kSumRelTol also pass, and `*bit_diff` is set:
/// the morsel tiers add grouped sums in another order than whole-column
/// execution, which the program does not make bit-identical.
std::string CompareResults(const apq::Intermediate& a,
                           const apq::Intermediate& b, bool float_bits_ok,
                           bool* bit_diff);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
