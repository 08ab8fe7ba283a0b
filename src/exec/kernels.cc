#include "exec/kernels.h"

#include <algorithm>
#include <string>

#include "obs/resource_tracker.h"

namespace apq {

namespace {

// ---- predicate functors ----------------------------------------------------
// One functor per (predicate kind x storage type) pairing; the operator()
// returns 0/1 so the selection loops can advance their write cursor without
// branching. Semantics mirror evaluator.cc's scalar `test` lambda exactly,
// including the int<->float casts for mistyped predicates.

struct TrueI64 {
  size_t operator()(int64_t) const { return 1; }
};
struct RangeI64 {
  int64_t lo, hi;
  size_t operator()(int64_t v) const {
    return static_cast<size_t>((v >= lo) & (v <= hi));
  }
};
struct EqI64 {
  int64_t v0;
  size_t operator()(int64_t v) const { return static_cast<size_t>(v == v0); }
};
// RangeF64 predicate over int64 storage: the scalar path casts the value.
struct RangeF64OverI64 {
  double lo, hi;
  size_t operator()(int64_t v) const {
    double x = static_cast<double>(v);
    return static_cast<size_t>((x >= lo) & (x <= hi));
  }
};
struct LikeCode {
  const uint8_t* match;
  size_t operator()(int64_t code) const { return match[code]; }
};

struct TrueF64 {
  size_t operator()(double) const { return 1; }
};
struct RangeF64 {
  double lo, hi;
  size_t operator()(double v) const {
    return static_cast<size_t>((v >= lo) & (v <= hi));
  }
};
// Int predicates over float64 storage: the scalar path truncates the value.
struct RangeI64OverF64 {
  int64_t lo, hi;
  size_t operator()(double v) const {
    int64_t x = static_cast<int64_t>(v);
    return static_cast<size_t>((x >= lo) & (x <= hi));
  }
};
struct EqI64OverF64 {
  int64_t v0;
  size_t operator()(double v) const {
    return static_cast<size_t>(static_cast<int64_t>(v) == v0);
  }
};
struct FalseAny {
  size_t operator()(int64_t) const { return 0; }
  size_t operator()(double) const { return 0; }
};

// ---- selection loops -------------------------------------------------------

// Rows per growth step of an output vector. Growing blockwise keeps
// resize()'s value-initialization proportional to the *output* and
// cache-warm, instead of one cold memset over the worst case; the selection
// loop then overwrites warm lines. The vector's own geometric growth bounds
// both reallocation cost and retained capacity at O(output) — deliberately
// no worst-case reserve, which would pin scanned-range-sized capacity inside
// long-lived intermediates. 32K oids = 256 KB, comfortably L2-resident.
constexpr size_t kGrowBlock = 32768;

// Appends all row ids in [begin, end) whose value passes `pred`. The loop
// body is branch-free: the row id is stored unconditionally and the write
// cursor advances by the 0/1 predicate result. The write pointer is
// re-fetched after every resize, so block-boundary reallocation is safe.
template <typename T, typename P>
void DenseLoop(const T* data, oid begin, oid end, P pred,
               std::vector<oid>* out) {
  size_t k = out->size();
  for (oid b = begin; b < end; b += kGrowBlock) {
    const oid e = b + kGrowBlock < end ? static_cast<oid>(b + kGrowBlock) : end;
    out->resize(k + (e - b));
    oid* dst = out->data();
    for (oid i = b; i < e; ++i) {
      dst[k] = i;
      k += pred(data[i]);
    }
  }
  out->resize(k);
}

// Candidate scan with boundary clip: candidates outside `range` are dropped
// (they belong to sibling clones). Out-of-range candidates never touch the
// data array; `range.begin` is a safe in-slice dummy row for the masked read.
template <typename T, typename P>
void CandidateLoop(const T* data, const oid* ids, size_t n, RowRange range,
                   P pred, std::vector<oid>* out, uint64_t* random_accesses) {
  if (range.size() == 0) return;  // empty slice: every candidate clips away
  size_t k = out->size();
  uint64_t accesses = 0;
  for (size_t b = 0; b < n; b += kGrowBlock) {
    const size_t e = b + kGrowBlock < n ? b + kGrowBlock : n;
    out->resize(k + (e - b));
    oid* dst = out->data();
    for (size_t i = b; i < e; ++i) {
      const oid row = ids[i];
      const size_t in = static_cast<size_t>(range.Contains(row));
      accesses += in;
      const oid safe = in ? row : range.begin;
      dst[k] = row;
      k += in & pred(data[safe]);
    }
  }
  out->resize(k);
  *random_accesses += accesses;
}

// ---- SIMD select drivers ---------------------------------------------------
// Same blockwise output growth as DenseLoop/CandidateLoop, but each block is
// filled by a dispatch-table kernel that compress-stores passing row ids.
// Those kernels may store one full vector past their final count, so every
// block is sized with kSelectStoreSlack; the final resize trims to the real
// count. `run(b, e, dst)` / `run(ids, n, dst)` returns the block's count.

template <typename F>
void DenseSimdLoop(oid begin, oid end, std::vector<oid>* out, F run) {
  size_t k = out->size();
  for (oid b = begin; b < end; b += kGrowBlock) {
    const oid e = b + kGrowBlock < end ? static_cast<oid>(b + kGrowBlock) : end;
    out->resize(k + (e - b) + simd::kSelectStoreSlack);
    k += run(b, e, out->data() + k);
  }
  out->resize(k);
}

template <typename F>
void CandSimdLoop(const oid* ids, size_t n, std::vector<oid>* out, F run) {
  size_t k = out->size();
  for (size_t b = 0; b < n; b += kGrowBlock) {
    const size_t e = b + kGrowBlock < n ? b + kGrowBlock : n;
    out->resize(k + (e - b) + simd::kSelectStoreSlack);
    k += run(ids + b, e - b, out->data() + k);
  }
  out->resize(k);
}

// Routes a dense select to the dispatch-table kernel for (pred kind x storage
// type) when the active tier has one. Returns false to run the generic loop.
bool TrySimdSelectDense(const Column& col, RowRange range,
                        const Predicate& pred,
                        const std::vector<uint8_t>* like_match,
                        std::vector<oid>* out, const simd::SimdOps* ops) {
  if (ops == nullptr) return false;
  if (col.type() == DataType::kFloat64) {
    const double* data = col.f64().data();
    switch (pred.kind) {
      case Predicate::Kind::kRangeF64:
        if (ops->select_range_f64 == nullptr) return false;
        DenseSimdLoop(range.begin, range.end, out, [&](oid b, oid e, oid* dst) {
          return ops->select_range_f64(data, b, e, pred.flo, pred.fhi, dst);
        });
        return true;
      case Predicate::Kind::kRangeI64:
        if (ops->select_range_i64_over_f64 == nullptr) return false;
        DenseSimdLoop(range.begin, range.end, out, [&](oid b, oid e, oid* dst) {
          return ops->select_range_i64_over_f64(data, b, e, pred.lo, pred.hi,
                                                dst);
        });
        return true;
      case Predicate::Kind::kEqI64:
        if (ops->select_eq_i64_over_f64 == nullptr) return false;
        DenseSimdLoop(range.begin, range.end, out, [&](oid b, oid e, oid* dst) {
          return ops->select_eq_i64_over_f64(data, b, e, pred.lo, dst);
        });
        return true;
      default:
        return false;
    }
  }
  const int64_t* data = col.i64().data();
  switch (pred.kind) {
    case Predicate::Kind::kRangeI64:
      if (ops->select_range_i64 == nullptr) return false;
      DenseSimdLoop(range.begin, range.end, out, [&](oid b, oid e, oid* dst) {
        return ops->select_range_i64(data, b, e, pred.lo, pred.hi, dst);
      });
      return true;
    case Predicate::Kind::kEqI64:
      if (ops->select_eq_i64 == nullptr) return false;
      DenseSimdLoop(range.begin, range.end, out, [&](oid b, oid e, oid* dst) {
        return ops->select_eq_i64(data, b, e, pred.lo, dst);
      });
      return true;
    case Predicate::Kind::kRangeF64:
      if (ops->select_range_f64_over_i64 == nullptr) return false;
      DenseSimdLoop(range.begin, range.end, out, [&](oid b, oid e, oid* dst) {
        return ops->select_range_f64_over_i64(data, b, e, pred.flo, pred.fhi,
                                              dst);
      });
      return true;
    case Predicate::Kind::kLike:
      if (ops->select_like == nullptr) return false;
      DenseSimdLoop(range.begin, range.end, out, [&](oid b, oid e, oid* dst) {
        return ops->select_like(data, b, e, like_match->data(), dst);
      });
      return true;
    default:
      return false;
  }
}

// Candidate-list counterpart. The caller has already handled the empty-slice
// early return; the cross-typed predicates have no candidate SIMD form and
// fall back to the generic loop.
bool TrySimdSelectCandidates(const Column& col, RowRange range,
                             const Predicate& pred,
                             const std::vector<uint8_t>* like_match,
                             const oid* ids, size_t n, std::vector<oid>* out,
                             uint64_t* random_accesses,
                             const simd::SimdOps* ops) {
  if (ops == nullptr) return false;
  if (col.type() == DataType::kFloat64) {
    const double* data = col.f64().data();
    if (pred.kind != Predicate::Kind::kRangeF64 ||
        ops->select_cand_range_f64 == nullptr) {
      return false;
    }
    CandSimdLoop(ids, n, out, [&](const oid* p, size_t m, oid* dst) {
      return ops->select_cand_range_f64(data, p, m, range.begin, range.end,
                                        pred.flo, pred.fhi, dst,
                                        random_accesses);
    });
    return true;
  }
  const int64_t* data = col.i64().data();
  switch (pred.kind) {
    case Predicate::Kind::kRangeI64:
      if (ops->select_cand_range_i64 == nullptr) return false;
      CandSimdLoop(ids, n, out, [&](const oid* p, size_t m, oid* dst) {
        return ops->select_cand_range_i64(data, p, m, range.begin, range.end,
                                          pred.lo, pred.hi, dst,
                                          random_accesses);
      });
      return true;
    case Predicate::Kind::kEqI64:
      if (ops->select_cand_eq_i64 == nullptr) return false;
      CandSimdLoop(ids, n, out, [&](const oid* p, size_t m, oid* dst) {
        return ops->select_cand_eq_i64(data, p, m, range.begin, range.end,
                                       pred.lo, dst, random_accesses);
      });
      return true;
    case Predicate::Kind::kLike:
      if (ops->select_cand_like == nullptr) return false;
      CandSimdLoop(ids, n, out, [&](const oid* p, size_t m, oid* dst) {
        return ops->select_cand_like(data, p, m, range.begin, range.end,
                                     like_match->data(), dst, random_accesses);
      });
      return true;
    default:
      return false;
  }
}

// Dispatches a select over int64-backed storage (ints, dates, dict codes).
template <typename Sink>
void DispatchI64(const Predicate& pred, const std::vector<uint8_t>* like_match,
                 Sink&& sink) {
  switch (pred.kind) {
    case Predicate::Kind::kNone: sink(TrueI64{}); break;
    case Predicate::Kind::kRangeI64: sink(RangeI64{pred.lo, pred.hi}); break;
    case Predicate::Kind::kEqI64: sink(EqI64{pred.lo}); break;
    case Predicate::Kind::kRangeF64:
      sink(RangeF64OverI64{pred.flo, pred.fhi});
      break;
    case Predicate::Kind::kLike: sink(LikeCode{like_match->data()}); break;
    default: sink(FalseAny{}); break;
  }
}

// Dispatches a select over float64 storage.
template <typename Sink>
void DispatchF64(const Predicate& pred, Sink&& sink) {
  switch (pred.kind) {
    case Predicate::Kind::kNone: sink(TrueF64{}); break;
    case Predicate::Kind::kRangeF64: sink(RangeF64{pred.flo, pred.fhi}); break;
    case Predicate::Kind::kRangeI64:
      sink(RangeI64OverF64{pred.lo, pred.hi});
      break;
    case Predicate::Kind::kEqI64: sink(EqI64OverF64{pred.lo}); break;
    default: sink(FalseAny{}); break;
  }
}

// ---- gather loops ----------------------------------------------------------

inline void GatherVals(const int64_t* src, const oid* ids, size_t n,
                       int64_t* dst, const simd::SimdOps* ops) {
  if (ops != nullptr && ops->gather_i64 != nullptr) {
    ops->gather_i64(src, ids, n, dst);
    return;
  }
  for (size_t i = 0; i < n; ++i) dst[i] = src[ids[i]];
}

inline void GatherVals(const double* src, const oid* ids, size_t n,
                       double* dst, const simd::SimdOps* ops) {
  if (ops != nullptr && ops->gather_f64 != nullptr) {
    ops->gather_f64(src, ids, n, dst);
    return;
  }
  for (size_t i = 0; i < n; ++i) dst[i] = src[ids[i]];
}

template <typename T>
void GatherAll(const T* src, const oid* ids, size_t n, std::vector<oid>* head,
               std::vector<T>* vals, const simd::SimdOps* ops) {
  const size_t hbase = head->size();
  const size_t vbase = vals->size();
  head->resize(hbase + n);
  vals->resize(vbase + n);
  std::copy(ids, ids + n, head->data() + hbase);
  GatherVals(src, ids, n, vals->data() + vbase, ops);
}

template <typename T>
void GatherClipped(const T* src, const oid* ids, size_t n, RowRange range,
                   std::vector<oid>* head, std::vector<T>* vals) {
  if (range.size() == 0) return;
  const size_t hbase = head->size();
  const size_t vbase = vals->size();
  size_t k = 0;
  for (size_t b = 0; b < n; b += kGrowBlock) {
    const size_t e = b + kGrowBlock < n ? b + kGrowBlock : n;
    head->resize(hbase + k + (e - b));
    vals->resize(vbase + k + (e - b));
    oid* hdst = head->data() + hbase;
    T* vdst = vals->data() + vbase;
    for (size_t i = b; i < e; ++i) {
      const oid row = ids[i];
      const size_t in = static_cast<size_t>(range.Contains(row));
      const oid safe = in ? row : range.begin;
      hdst[k] = row;
      vdst[k] = src[safe];
      k += in;
    }
  }
  head->resize(hbase + k);
  vals->resize(vbase + k);
}

template <typename T>
void GatherAt(const T* src, const oid* ids, size_t n, oid* hdst, T* vdst,
              const simd::SimdOps* ops) {
  std::copy(ids, ids + n, hdst);
  GatherVals(src, ids, n, vdst, ops);
}

Status MisalignedBeyond(const Column& col, oid id, const char* op) {
  return Status::Misaligned(std::string(op) + " rowid " + std::to_string(id) +
                            " beyond column '" + col.name() + "' size " +
                            std::to_string(col.size()));
}

Status MisalignedOutside(const Column& col, oid id, RowRange range) {
  return Status::Misaligned("fetchjoin rowid " + std::to_string(id) +
                            " outside slice " + range.ToString() + " of '" +
                            col.name() + "'");
}

// Strict-mode validation: a branchless violation count first (vectorizes to
// a sum-reduction, like BoundsCheckIds' max pre-pass); only on failure do we
// rescan in input order, checking beyond-column before out-of-slice per id —
// the same id fails with the same error the scalar interpreter reports.
Status StrictCheckIds(const Column& col, const oid* ids, size_t n,
                      RowRange range) {
  const oid csize = col.size();
  size_t bad = 0;
  for (size_t i = 0; i < n; ++i) {
    bad += static_cast<size_t>(ids[i] >= csize) |
           static_cast<size_t>(ids[i] < range.begin) |
           static_cast<size_t>(ids[i] >= range.end);
  }
  if (bad != 0) {
    for (size_t i = 0; i < n; ++i) {
      if (ids[i] >= csize) return MisalignedBeyond(col, ids[i], "fetchjoin");
      if (!range.Contains(ids[i])) return MisalignedOutside(col, ids[i], range);
    }
  }
  return Status::OK();
}

}  // namespace

void NarrowAscending(const oid** ids, size_t* n, RowRange range) {
  const oid* lo = std::lower_bound(*ids, *ids + *n, range.begin);
  const oid* hi = std::lower_bound(lo, *ids + *n, range.end);
  *ids = lo;
  *n = static_cast<size_t>(hi - lo);
}

Status BoundsCheckIds(const Column& col, const oid* ids, size_t n,
                      bool ascending, const char* op) {
  if (n == 0) return Status::OK();
  if (ascending) {
    // The largest id is the last; the first offender is the first id at or
    // past the column end.
    if (ids[n - 1] < col.size()) return Status::OK();
    return MisalignedBeyond(
        col, *std::lower_bound(ids, ids + n, static_cast<oid>(col.size())), op);
  }
  // Max-reduction pre-pass (vectorizes): only on failure do we rescan for
  // the first offending id, to report the same error the scalar interpreter
  // would.
  oid max_id = 0;
  for (size_t i = 0; i < n; ++i) max_id = ids[i] > max_id ? ids[i] : max_id;
  if (max_id >= col.size()) {
    oid bad = max_id;
    for (size_t i = 0; i < n; ++i) {
      if (ids[i] >= col.size()) { bad = ids[i]; break; }
    }
    return MisalignedBeyond(col, bad, op);
  }
  return Status::OK();
}

std::vector<uint8_t> BuildLikeMatch(const Column& col, const Predicate& p) {
  const auto& dict = col.dictionary();
  // kLikeMatchPad zero tail bytes: the SIMD probe gathers 32-bit words at
  // byte offsets, reading up to 3 bytes past the addressed code.
  std::vector<uint8_t> match(dict.size() + simd::kLikeMatchPad, 0);
  for (size_t i = 0; i < dict.size(); ++i) {
    bool hit = dict[i].find(p.pattern) != std::string::npos;
    match[i] = (hit != p.anti) ? 1 : 0;
  }
  return match;
}

void SelectDense(const Column& col, RowRange range, const Predicate& pred,
                 const std::vector<uint8_t>* like_match, std::vector<oid>* out,
                 const simd::SimdOps* ops) {
  // One charge per kernel invocation (whole column or one morsel), never per
  // row: the selection vector produced here is this call's working growth.
  const size_t before = out->size();
  if (TrySimdSelectDense(col, range, pred, like_match, out, ops)) {
    obs::ChargeTransient((out->size() - before) * sizeof(oid));
    return;
  }
  if (col.type() == DataType::kFloat64) {
    const double* data = col.f64().data();
    DispatchF64(pred, [&](auto p) { DenseLoop(data, range.begin, range.end, p, out); });
  } else {
    const int64_t* data = col.i64().data();
    DispatchI64(pred, like_match,
                [&](auto p) { DenseLoop(data, range.begin, range.end, p, out); });
  }
  obs::ChargeTransient((out->size() - before) * sizeof(oid));
}

void SelectCandidatesSpan(const Column& col, RowRange range,
                          const Predicate& pred,
                          const std::vector<uint8_t>* like_match,
                          const oid* ids, size_t n, std::vector<oid>* out,
                          uint64_t* random_accesses, const simd::SimdOps* ops) {
  if (range.size() == 0) return;  // empty slice: every candidate clips away
  const size_t before = out->size();
  if (TrySimdSelectCandidates(col, range, pred, like_match, ids, n, out,
                              random_accesses, ops)) {
    obs::ChargeTransient((out->size() - before) * sizeof(oid));
    return;
  }
  if (col.type() == DataType::kFloat64) {
    const double* data = col.f64().data();
    DispatchF64(pred, [&](auto p) {
      CandidateLoop(data, ids, n, range, p, out, random_accesses);
    });
  } else {
    const int64_t* data = col.i64().data();
    DispatchI64(pred, like_match, [&](auto p) {
      CandidateLoop(data, ids, n, range, p, out, random_accesses);
    });
  }
  obs::ChargeTransient((out->size() - before) * sizeof(oid));
}

Status GatherRows(const Column& col, const std::vector<oid>& ids,
                  RowRange range, bool sliced, AlignPolicy align,
                  std::vector<oid>* head, ValueVec* values,
                  const simd::SimdOps* ops) {
  return GatherRowsSpan(col, ids.data(), ids.size(), range, sliced, align,
                        head, values, ops);
}

Status GatherRowsSpan(const Column& col, const oid* ids, size_t n,
                      RowRange range, bool sliced, AlignPolicy align,
                      std::vector<oid>* head, ValueVec* values,
                      const simd::SimdOps* ops, bool ascending) {
  if (sliced && align == AlignPolicy::kStrict) {
    APQ_RETURN_NOT_OK(StrictCheckIds(col, ids, n, range));
    sliced = false;  // all ids verified in-slice: take the unclipped gather
  } else {
    APQ_RETURN_NOT_OK(BoundsCheckIds(col, ids, n, ascending));
  }
  const size_t before =
      col.type() == DataType::kFloat64 ? values->f64.size() : values->i64.size();
  if (col.type() == DataType::kFloat64) {
    if (sliced) GatherClipped(col.f64().data(), ids, n, range, head, &values->f64);
    else GatherAll(col.f64().data(), ids, n, head, &values->f64, ops);
  } else {
    if (sliced) GatherClipped(col.i64().data(), ids, n, range, head, &values->i64);
    else GatherAll(col.i64().data(), ids, n, head, &values->i64, ops);
  }
  const size_t after =
      col.type() == DataType::kFloat64 ? values->f64.size() : values->i64.size();
  obs::ChargeTransient((after - before) * (sizeof(int64_t) + sizeof(oid)));
  return Status::OK();
}

Status GatherRowsAt(const Column& col, const oid* ids, size_t n,
                    RowRange range, bool strict_sliced, oid* head_dst,
                    ValueVec* values, uint64_t offset,
                    const simd::SimdOps* ops, bool ascending) {
  if (strict_sliced) {
    APQ_RETURN_NOT_OK(StrictCheckIds(col, ids, n, range));
  } else {
    APQ_RETURN_NOT_OK(BoundsCheckIds(col, ids, n, ascending));
  }
  if (col.type() == DataType::kFloat64) {
    GatherAt(col.f64().data(), ids, n, head_dst, values->f64.data() + offset,
             ops);
  } else {
    GatherAt(col.i64().data(), ids, n, head_dst, values->i64.data() + offset,
             ops);
  }
  // The destination was pre-sized by the caller; record this task's span of
  // it so per-morsel gathers surface in the peak like the span path does.
  obs::ChargeTransient(n * (sizeof(int64_t) + sizeof(oid)));
  return Status::OK();
}

}  // namespace apq
