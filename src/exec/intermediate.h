// Intermediate results flowing between operators.
//
// Every intermediate carries the base row range it was derived from (its
// *origin*), which is what lets the engine verify dynamic-partition boundary
// alignment during tuple reconstruction (paper §2.3, Figs 9/10).
#ifndef APQ_EXEC_INTERMEDIATE_H_
#define APQ_EXEC_INTERMEDIATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/column.h"
#include "storage/types.h"

namespace apq {

/// \brief A typed vector of values (a materialized column fragment).
struct ValueVec {
  DataType type = DataType::kInt64;
  std::vector<int64_t> i64;        // ints / date days / dictionary codes
  std::vector<double> f64;
  const Column* dict = nullptr;    // dictionary provider for string codes

  uint64_t size() const {
    return type == DataType::kFloat64 ? f64.size() : i64.size();
  }
  bool is_f64() const { return type == DataType::kFloat64; }

  double AsDouble(uint64_t i) const {
    return is_f64() ? f64[i] : static_cast<double>(i64[i]);
  }
  int64_t AsInt(uint64_t i) const {
    return is_f64() ? static_cast<int64_t>(f64[i]) : i64[i];
  }

  void Reserve(uint64_t n) {
    if (is_f64()) f64.reserve(n); else i64.reserve(n);
  }
  void Append(const ValueVec& other) {
    if (is_f64()) f64.insert(f64.end(), other.f64.begin(), other.f64.end());
    else i64.insert(i64.end(), other.i64.begin(), other.i64.end());
  }
};

/// \brief The result of one operator execution.
struct Intermediate {
  enum class Kind : uint8_t {
    kNone = 0,
    kRowIds,      // candidate row ids into a base table (known sorted
                  // only when `ascending` is set)
    kValues,      // materialized values, optionally with head row ids
    kPairs,       // join result: (left row id, right row id) pairs
    kGroups,      // group ids per input row + distinct group keys
    kGroupedAgg,  // per-group aggregate values (keys + values + counts)
    kScalar,      // single aggregate value
  };

  Kind kind = Kind::kNone;

  // kRowIds / kValues / kPairs: the base range this result was computed from.
  RowRange origin;

  // kRowIds (also the left side of kPairs).
  std::vector<oid> rowids;
  // kRowIds: `rowids` is non-decreasing. Set by a dense select, by a
  // candidate select over an ascending list, and by an exchange union whose
  // inputs are ascending and abut in order. Sliced consumers then narrow the
  // list to their slice by binary search instead of clipping every id.
  bool ascending = false;
  // kPairs: right-side row ids, parallel to rowids.
  std::vector<oid> rrowids;

  // kValues: values and (optional) head row ids aligned 1:1 with values.
  ValueVec values;
  std::vector<oid> head;

  // kGroups: group id per input position; keys indexed by group id.
  std::vector<int64_t> group_ids;
  ValueVec group_keys;

  // kGroupedAgg: group_keys plus per-group aggregate and count.
  std::vector<double> agg_vals;
  std::vector<int64_t> agg_counts;

  // kScalar.
  double scalar = 0.0;
  int64_t scalar_count = 0;

  /// Cardinality of this intermediate (tuples produced).
  uint64_t NumRows() const {
    switch (kind) {
      case Kind::kRowIds: return rowids.size();
      case Kind::kPairs: return rowids.size();
      case Kind::kValues: return values.size();
      case Kind::kGroups: return group_ids.size();
      case Kind::kGroupedAgg: return agg_vals.size();
      case Kind::kScalar: return 1;
      case Kind::kNone: return 0;
    }
    return 0;
  }

  /// Approximate bytes materialized by this intermediate (drives union cost).
  uint64_t ByteSize() const {
    switch (kind) {
      case Kind::kRowIds: return rowids.size() * sizeof(oid);
      case Kind::kPairs: return rowids.size() * 2 * sizeof(oid);
      case Kind::kValues:
        return values.size() * 8 + head.size() * sizeof(oid);
      case Kind::kGroups:
        return group_ids.size() * 8 + group_keys.size() * 8;
      case Kind::kGroupedAgg: return agg_vals.size() * 24;
      case Kind::kScalar: return 16;
      case Kind::kNone: return 0;
    }
    return 0;
  }

  static const char* KindName(Kind k) {
    switch (k) {
      case Kind::kNone: return "none";
      case Kind::kRowIds: return "rowids";
      case Kind::kValues: return "values";
      case Kind::kPairs: return "pairs";
      case Kind::kGroups: return "groups";
      case Kind::kGroupedAgg: return "groupedagg";
      case Kind::kScalar: return "scalar";
    }
    return "?";
  }
};

}  // namespace apq

#endif  // APQ_EXEC_INTERMEDIATE_H_
