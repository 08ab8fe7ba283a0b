#include "exec/evaluator.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <unordered_map>

#include "exec/agg/parallel_agg.h"
#include "exec/kernels.h"
#include "exec/sort/merge.h"
#include "obs/query_log.h"
#include "obs/resource_tracker.h"
#include "util/hash_clock.h"

// CMake stamps the project version in; a bare compile (e.g. an IDE index
// pass) still builds.
#ifndef APQ_VERSION
#define APQ_VERSION "dev"
#endif

namespace apq {

void RegisterBuildInfo(simd::SimdLevel level) {
  static const bool once = [level] {
#ifdef NDEBUG
    const char* build = "release";
#else
    const char* build = "debug";
#endif
    obs::MetricsRegistry::Global()
        .GetGauge(std::string("apq_build_info{version=\"") + APQ_VERSION +
                  "\",simd=\"" + simd::LevelName(level) + "\",build=\"" +
                  build + "\"}")
        ->Set(1);
    return true;
  }();
  (void)once;
}

namespace {

bool EvalPredI64(const Predicate& p, int64_t v) {
  switch (p.kind) {
    case Predicate::Kind::kNone: return true;
    case Predicate::Kind::kRangeI64: return v >= p.lo && v <= p.hi;
    case Predicate::Kind::kEqI64: return v == p.lo;
    default: return false;
  }
}

ValueVec MakeVecLike(const Column& col) {
  ValueVec v;
  v.type = col.type();
  if (col.type() == DataType::kString) v.dict = &col;
  return v;
}

void GatherInto(const Column& col, oid row, ValueVec* vals) {
  if (col.type() == DataType::kFloat64) {
    vals->f64.push_back(col.f64()[row]);
  } else {
    vals->i64.push_back(col.i64()[row]);
  }
}

// Applies a sort permutation to (values, head): the result holds values[p]
// (and head[p], when head is non-null) for each p in perm, in perm order.
void GatherPermuted(const ValueVec& values, const std::vector<oid>* head,
                    const std::vector<uint64_t>& perm, Intermediate* result) {
  result->kind = Intermediate::Kind::kValues;
  result->values.type = values.type;
  result->values.dict = values.dict;
  result->values.Reserve(perm.size());
  if (head != nullptr) result->head.reserve(perm.size());
  for (uint64_t i : perm) {
    if (values.is_f64()) result->values.f64.push_back(values.f64[i]);
    else result->values.i64.push_back(values.i64[i]);
    if (head != nullptr) result->head.push_back((*head)[i]);
  }
}

Status InputSlot(const std::vector<Intermediate>& slots,
                 const std::vector<uint8_t>& done, int id,
                 const Intermediate** out) {
  if (id < 0 || id >= static_cast<int>(slots.size()) || !done[id]) {
    return Status::Internal("input X_" + std::to_string(id) + " not evaluated");
  }
  *out = &slots[id];
  return Status::OK();
}

// CI and stress runs force morsel execution onto every kernels-path query
// without touching call sites. Returns 0 when unset/off, 1 when set (keep the
// configured morsel size), or a row count when the variable carries one
// (APQ_FORCE_MORSELS=4096 — small enough that unit-test tables split too).
// Anything that does not parse as a sane row count is rejected with a
// one-line warning rather than silently becoming an undefined morsel size.
uint64_t ForcedMorselRowsFromEnv() {
  // A morsel bigger than this could only mean a typo (it exceeds any table
  // this repository can hold in memory) or a negative value pushed through
  // strtoull's modular wrap.
  constexpr unsigned long long kMaxSaneMorselRows = 1ull << 32;
  static const uint64_t forced = [] {
    const char* v = std::getenv("APQ_FORCE_MORSELS");
    if (v == nullptr || v[0] == '\0') return uint64_t{0};
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0') {
      std::fprintf(stderr,
                   "apq: ignoring APQ_FORCE_MORSELS=\"%s\": not a number "
                   "(use 1 to force, or a rows-per-morsel count)\n",
                   v);
      return uint64_t{0};
    }
    if (errno == ERANGE || n > kMaxSaneMorselRows) {
      std::fprintf(stderr,
                   "apq: ignoring APQ_FORCE_MORSELS=\"%s\": absurd morsel "
                   "size (max %llu rows)\n",
                   v, kMaxSaneMorselRows);
      return uint64_t{0};
    }
    if (n == 0) {
      std::fprintf(stderr,
                   "apq: APQ_FORCE_MORSELS=\"%s\" parses to 0; morsel "
                   "execution is NOT forced\n",
                   v);
      return uint64_t{0};
    }
    // 1 forces with the configured size, larger values force that many rows
    // per morsel.
    return static_cast<uint64_t>(n);
  }();
  return forced;
}

// Per-op-kind tuple-flow counters (every tier funnels through ExecNode, so
// these cover kernels, morsels, parallel agg/sort/probe and SIMD alike).
// Resolved once per process; the per-run update is one relaxed add per
// operator, far off the hot path.
struct TupleFlow {
  obs::Counter* in = nullptr;
  obs::Counter* out = nullptr;
};

const TupleFlow& TupleFlowFor(OpKind k) {
  constexpr size_t kKinds = static_cast<size_t>(OpKind::kResult) + 1;
  static const std::array<TupleFlow, kKinds>* flows = [] {
    auto* f = new std::array<TupleFlow, kKinds>();
    auto& reg = obs::MetricsRegistry::Global();
    for (size_t i = 0; i < kKinds; ++i) {
      const char* name = OpKindName(static_cast<OpKind>(i));
      (*f)[i].in = reg.GetCounter(
          std::string("apq_op_tuples_in_total{op=\"") + name + "\"}");
      (*f)[i].out = reg.GetCounter(
          std::string("apq_op_tuples_out_total{op=\"") + name + "\"}");
    }
    return f;
  }();
  return (*flows)[static_cast<size_t>(k)];
}

}  // namespace

#define APQ_INPUT_OF(ctx, id, out) \
  APQ_RETURN_NOT_OK(InputSlot(*(ctx).slots, *(ctx).done, (id), (out)))

bool Evaluator::MorselsEnabled() const {
  return options_.use_kernels &&
         (options_.use_morsels || ForcedMorselRowsFromEnv() != 0);
}

bool Evaluator::ParallelAggEnabled() const {
  return MorselsEnabled() &&
         (options_.use_parallel_agg || ForcedMorselRowsFromEnv() != 0);
}

bool Evaluator::ParallelSortEnabled() const {
  return MorselsEnabled() &&
         (options_.use_parallel_sort || ForcedMorselRowsFromEnv() != 0);
}

uint64_t Evaluator::EffectiveMorselRows() const {
  const uint64_t forced = ForcedMorselRowsFromEnv();
  return forced > 1 ? forced : options_.morsel_rows;
}

uint64_t Evaluator::ForcedEnvMorselRows() { return ForcedMorselRowsFromEnv(); }

uint64_t Evaluator::MorselRowsForNode(int node_id) const {
  if (options_.adaptive_morsel_rows && !adaptive_rows_.empty()) {
    auto it = adaptive_rows_.find(node_id);
    if (it != adaptive_rows_.end() && it->second > 0) return it->second;
  }
  return EffectiveMorselRows();
}

const std::shared_ptr<MorselScheduler>& Evaluator::EnsureMorselScheduler() {
  if (!morsel_sched_) {
    morsel_sched_ = std::make_shared<MorselScheduler>(options_.morsel_workers);
    morsel_sched_owned_ = true;
  }
  return morsel_sched_;
}

size_t Evaluator::MorselSelectDense(const Column& col, RowRange range,
                                    const Predicate& pred,
                                    const std::vector<uint8_t>* like_match,
                                    Intermediate* result, OpMetrics* m) {
  MorselSource src(range, MorselRowsForNode(m->node_id));
  const size_t nm = src.num_morsels();
  if (nm < 2) return 0;  // one morsel = whole column; skip the detour

  // Each morsel selects into its own fragment; concatenation in morsel order
  // reproduces the whole-column scan bit-for-bit (SelectDense appends row ids
  // in row order within its subrange).
  std::vector<std::vector<oid>> frags(nm);
  std::vector<MorselMetrics> mm(nm);
  EnsureMorselScheduler()->ParallelFor(nm, [&](size_t i, int worker) {
    const Morsel ms = src.morsel(i);
    // Sampled by deterministic morsel index, so the trace never depends on
    // which worker ran the morsel (determinism) and hot loops pay at most
    // one span per kMorselSampleMask+1 tasks.
    const bool tr =
        obs::TraceEnabled() && (i & obs::kMorselSampleMask) == 0;
    const uint64_t tt0 = tr ? obs::TraceTicks() : 0;
    const double t0 = NowNs();
    SelectDense(col, RowRange{ms.begin, ms.end}, pred, like_match, &frags[i],
                simd_ops_);
    mm[i] = MorselMetrics{ms.size(), frags[i].size(), NowNs() - t0, worker,
                          ms.begin, ms.end};
    if (tr) {
      obs::EmitSpan(obs::SpanKind::kMorsel, "morsel-select", tt0,
                    obs::TraceTicks(), m->node_id, static_cast<int64_t>(i),
                    static_cast<int64_t>(frags[i].size()));
    }
  });

  size_t total = 0;
  for (const auto& f : frags) total += f.size();
  result->rowids.reserve(result->rowids.size() + total);
  for (const auto& f : frags) {
    result->rowids.insert(result->rowids.end(), f.begin(), f.end());
  }
  m->morsels = std::move(mm);
  return nm;
}

size_t Evaluator::MorselSelectCandidates(const Column& col, RowRange range,
                                         const Predicate& pred,
                                         const std::vector<uint8_t>* like_match,
                                         const oid* candidates, size_t n,
                                         Intermediate* result, OpMetrics* m) {
  MorselSource src(0, n, MorselRowsForNode(m->node_id));
  const size_t nm = src.num_morsels();
  if (nm < 2) return 0;

  std::vector<std::vector<oid>> frags(nm);
  std::vector<uint64_t> accesses(nm, 0);
  std::vector<MorselMetrics> mm(nm);
  EnsureMorselScheduler()->ParallelFor(nm, [&](size_t i, int worker) {
    const Morsel ms = src.morsel(i);
    const bool tr =
        obs::TraceEnabled() && (i & obs::kMorselSampleMask) == 0;
    const uint64_t tt0 = tr ? obs::TraceTicks() : 0;
    const double t0 = NowNs();
    SelectCandidatesSpan(col, range, pred, like_match, candidates + ms.begin,
                         ms.size(), &frags[i], &accesses[i], simd_ops_);
    // Ascending candidate span; a span crossing this clone's slice boundary
    // reports no domain (see MorselGather's domain note — the tuple counts
    // would be diluted by clip-only candidates).
    uint64_t db = candidates[ms.begin];
    uint64_t de = candidates[ms.end - 1] + 1;
    if (db < range.begin || de > range.end) db = de = 0;
    mm[i] = MorselMetrics{ms.size(), frags[i].size(), NowNs() - t0, worker,
                          db, de};
    if (tr) {
      obs::EmitSpan(obs::SpanKind::kMorsel, "morsel-select-cand", tt0,
                    obs::TraceTicks(), m->node_id, static_cast<int64_t>(i),
                    static_cast<int64_t>(frags[i].size()));
    }
  });

  size_t total = 0;
  for (const auto& f : frags) total += f.size();
  result->rowids.reserve(result->rowids.size() + total);
  for (size_t i = 0; i < nm; ++i) {
    result->rowids.insert(result->rowids.end(), frags[i].begin(),
                          frags[i].end());
    m->random_accesses += accesses[i];
  }
  m->morsels = std::move(mm);
  return nm;
}

Status Evaluator::MorselGather(const Column& col, const oid* ids, size_t n,
                               RowRange range, bool sliced, AlignPolicy align,
                               bool ascending, Intermediate* result,
                               OpMetrics* m, bool* ran) {
  *ran = false;
  MorselSource src(0, n, MorselRowsForNode(m->node_id));
  const size_t nm = src.num_morsels();
  if (nm < 2) return Status::OK();
  *ran = true;
  // Candidate row ids from selects are ascending, so [first, last+1) is the
  // base-row domain this morsel covers; the skew-aware mutator validates
  // monotonicity before using it (pairs-fed id lists may be unsorted). A
  // clipping clone only owns its slice's share of the candidate span — a
  // morsel whose span crosses the slice boundary (fully or partially) has
  // its tuple counts diluted by clip-only candidates, so its domain is
  // reported unknown and the operator's tuple-skew signal is withheld
  // rather than mistaking clipping for skew. (A clone that narrowed an
  // ascending list arrives here unsliced: every morsel is in-slice.)
  auto domain = [ids, &range, sliced](const Morsel& ms) {
    uint64_t db = ids[ms.begin];
    uint64_t de = ids[ms.end - 1] + 1;
    if (sliced && (db < range.begin || de > range.end)) {
      return std::pair<uint64_t, uint64_t>{0, 0};
    }
    return std::pair<uint64_t, uint64_t>{db, de};
  };

  // Without kAdjust clipping every id yields exactly one output (strict
  // slices validate, they don't drop), so morsel i owns exactly the output
  // span [ms.begin, ms.end): workers gather straight into the pre-sized
  // result — no fragment vectors, no second concatenation pass.
  if (!(sliced && align == AlignPolicy::kAdjust)) {
    const size_t hbase = result->head.size();
    const uint64_t vbase = result->values.size();
    result->head.resize(hbase + n);
    if (result->values.is_f64()) {
      result->values.f64.resize(vbase + n);
    } else {
      result->values.i64.resize(vbase + n);
    }
    std::vector<Status> statuses(nm);
    std::vector<MorselMetrics> direct_mm(nm);
    EnsureMorselScheduler()->ParallelFor(nm, [&](size_t i, int worker) {
      const Morsel ms = src.morsel(i);
      const bool tr =
          obs::TraceEnabled() && (i & obs::kMorselSampleMask) == 0;
      const uint64_t tt0 = tr ? obs::TraceTicks() : 0;
      const double t0 = NowNs();
      statuses[i] = GatherRowsAt(col, ids + ms.begin, ms.size(), range,
                                 /*strict_sliced=*/sliced,
                                 result->head.data() + hbase + ms.begin,
                                 &result->values, vbase + ms.begin, simd_ops_,
                                 ascending);
      const auto [db, de] = domain(ms);
      direct_mm[i] =
          MorselMetrics{ms.size(), ms.size(), NowNs() - t0, worker, db, de};
      if (tr) {
        obs::EmitSpan(obs::SpanKind::kMorsel, "morsel-gather", tt0,
                      obs::TraceTicks(), m->node_id, static_cast<int64_t>(i),
                      static_cast<int64_t>(ms.size()));
      }
    });
    // Lowest failing morsel = input-order first offender, matching the
    // whole-list error; the partially written result is discarded upstream.
    for (const auto& st : statuses) {
      if (!st.ok()) return st;
    }
    m->morsels = std::move(direct_mm);
    return Status::OK();
  }

  struct Frag {
    std::vector<oid> head;
    ValueVec values;
    Status status = Status::OK();
  };
  std::vector<Frag> frags(nm);
  for (auto& f : frags) {
    f.values.type = result->values.type;
    f.values.dict = result->values.dict;
  }
  std::vector<MorselMetrics> mm(nm);
  EnsureMorselScheduler()->ParallelFor(nm, [&](size_t i, int worker) {
    const Morsel ms = src.morsel(i);
    const bool tr =
        obs::TraceEnabled() && (i & obs::kMorselSampleMask) == 0;
    const uint64_t tt0 = tr ? obs::TraceTicks() : 0;
    const double t0 = NowNs();
    frags[i].status =
        GatherRowsSpan(col, ids + ms.begin, ms.size(), range, sliced, align,
                       &frags[i].head, &frags[i].values, simd_ops_);
    const auto [db, de] = domain(ms);
    mm[i] = MorselMetrics{ms.size(), frags[i].values.size(), NowNs() - t0,
                          worker, db, de};
    if (tr) {
      obs::EmitSpan(obs::SpanKind::kMorsel, "morsel-gather", tt0,
                    obs::TraceTicks(), m->node_id, static_cast<int64_t>(i),
                    static_cast<int64_t>(frags[i].values.size()));
    }
  });

  // Errors surface from the lowest-indexed failing morsel: morsel order is
  // input order, so this is the same first-offender error the whole-list
  // kernel (and the scalar interpreter) reports.
  for (const auto& f : frags) {
    if (!f.status.ok()) return f.status;
  }
  size_t total = 0;
  for (const auto& f : frags) total += f.head.size();
  result->head.reserve(result->head.size() + total);
  result->values.Reserve(result->values.size() + total);
  for (auto& f : frags) {
    result->head.insert(result->head.end(), f.head.begin(), f.head.end());
    result->values.Append(f.values);
  }
  m->morsels = std::move(mm);
  return Status::OK();
}

size_t Evaluator::MorselGroupBy(const int64_t* keys, uint64_t n,
                                Intermediate* result, OpMetrics* m) {
  ParallelAggOptions o;
  o.morsel_rows = MorselRowsForNode(m->node_id);
  o.scheduler = EnsureMorselScheduler().get();
  std::vector<MorselMetrics> mm;
  const size_t nm = ParallelGroupBy(keys, n, o, &result->group_ids,
                                    &result->group_keys.i64, &mm);
  if (nm > 0) m->morsels = std::move(mm);
  return nm;
}

size_t Evaluator::MorselGroupedAgg(const int64_t* gids, uint64_t n,
                                   const ValueVec* vals, AggFn fn,
                                   uint64_t ngroups, Intermediate* result) {
  const double* vf = nullptr;
  const int64_t* vi = nullptr;
  if (vals != nullptr) {
    if (vals->is_f64()) {
      vf = vals->f64.data();
    } else {
      vi = vals->i64.data();
    }
  }
  ParallelAggOptions o;
  o.morsel_rows = EffectiveMorselRows();
  o.scheduler = EnsureMorselScheduler().get();
  o.simd = simd_ops_;
  // No per-morsel metrics here: a morsel's output is a partial over an
  // unknowable share of the ngroups output rows, so per-morsel tuple counts
  // could not sum to the operator totals the profiler relies on.
  return ParallelGroupedAgg(gids, n, vf, vi, fn, ngroups, o,
                            result->agg_vals.data(),
                            result->agg_counts.data());
}

size_t Evaluator::MorselSortPerm(const SortKeys& keys, uint64_t n,
                                 bool descending, uint64_t limit,
                                 std::vector<uint64_t>* perm, OpMetrics* m) {
  ParallelSortOptions o;
  o.morsel_rows = MorselRowsForNode(m->node_id);
  o.scheduler = EnsureMorselScheduler().get();
  o.limit = limit;
  std::vector<std::vector<uint64_t>> runs;
  std::vector<MorselMetrics> mm;
  const size_t nm = BuildSortRuns(keys, n, o, descending, &runs, &mm);
  if (nm == 0) return 0;

  std::vector<RunSpan> spans(runs.size());
  uint64_t total = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    spans[r] = RunSpan{runs[r].data(), runs[r].size()};
    total += runs[r].size();
  }
  // The run tasks charged their fragments durably; adopt the sum so one
  // release covers them when the merge is done (error-path safe).
  obs::ScopedMemCharge guard;
  guard.AssumeCharged(total * sizeof(uint64_t));
  // Bounded top-N: the runs were clipped to their limit smallest, so the
  // merge sees at most runs x limit candidates and emits only limit rows.
  const uint64_t out_len = limit > 0 && limit < total ? limit : total;
  perm->resize(out_len);
  guard.Add(out_len * sizeof(uint64_t));
  ParallelMergeRuns(spans, SortKeyLess{keys, descending}, o, out_len,
                    perm->data(), &mm);
  m->morsels = std::move(mm);
  return nm;
}

size_t Evaluator::MorselJoinProbe(
    uint64_t n,
    const std::function<void(uint64_t, uint64_t, std::vector<oid>*,
                             std::vector<oid>*)>& probe_span,
    Intermediate* result, OpMetrics* m) {
  MorselSource src(0, n, MorselRowsForNode(m->node_id));
  const size_t nm = src.num_morsels();
  if (nm < 2) return 0;

  // Per-probe match order is the hash chain order of one shared (read-only)
  // build, so concatenating per-morsel pair fragments in morsel order
  // reproduces the sequential probe loop bit-for-bit.
  struct Frag {
    std::vector<oid> l, r;
  };
  std::vector<Frag> frags(nm);
  std::vector<MorselMetrics> mm(nm);
  EnsureMorselScheduler()->ParallelFor(nm, [&](size_t i, int worker) {
    const Morsel ms = src.morsel(i);
    const bool tr =
        obs::TraceEnabled() && (i & obs::kMorselSampleMask) == 0;
    const uint64_t tt0 = tr ? obs::TraceTicks() : 0;
    const double t0 = NowNs();
    probe_span(ms.begin, ms.end, &frags[i].l, &frags[i].r);
    mm[i] = MorselMetrics{ms.size(), frags[i].l.size(), NowNs() - t0, worker};
    if (tr) {
      obs::EmitSpan(obs::SpanKind::kMorsel, "morsel-probe", tt0,
                    obs::TraceTicks(), m->node_id, static_cast<int64_t>(i),
                    static_cast<int64_t>(frags[i].l.size()));
    }
  });

  size_t total = 0;
  for (const auto& f : frags) total += f.l.size();
  result->rowids.reserve(result->rowids.size() + total);
  result->rrowids.reserve(result->rrowids.size() + total);
  for (const auto& f : frags) {
    result->rowids.insert(result->rowids.end(), f.l.begin(), f.l.end());
    result->rrowids.insert(result->rrowids.end(), f.r.begin(), f.r.end());
  }
  m->morsels = std::move(mm);
  return nm;
}

std::shared_ptr<HashIndex> Evaluator::GetOrBuildHash(const Column& column) {
  // hash_mu_ only covers the map lookup/insert; the build itself runs under
  // the slot's once_flag. Concurrent first builds of *different* inners
  // therefore proceed in parallel, while clones racing for the *same* inner
  // still share one build (the sharing MonetDB's BAT hash gives), with
  // late-comers blocking in call_once until the winner finishes.
  std::shared_ptr<HashSlot> slot;
  {
    std::lock_guard<std::mutex> lock(hash_mu_);
    auto& entry = hash_cache_[&column];
    if (!entry) entry = std::make_shared<HashSlot>();
    slot = entry;
  }
  std::call_once(slot->built, [&] {
    slot->index = HashIndex::Build(column, column.full_range());
    // The index outlives this query (BAT-style cross-query cache): surface
    // the build in the builder's peak, then park the steady-state bytes in
    // the process-wide cache gauge instead of leaving per-query drift.
    obs::ChargeTransient(slot->index->byte_size());
    obs::AddHashCacheBytes(static_cast<int64_t>(slot->index->byte_size()));
    std::lock_guard<std::mutex> lock(hash_mu_);
    hash_builds_.emplace_back(&column, slot->index->num_keys());
  });
  return slot->index;
}

Status Evaluator::Execute(const QueryPlan& plan, EvalResult* out) {
  APQ_RETURN_NOT_OK(plan.Validate());
  out->intermediates.clear();
  out->metrics.clear();
  auto order_or = plan.TopologicalOrder();
  if (!order_or.ok()) return order_or.status();
  const std::vector<int>& order = order_or.ValueOrDie();

  std::vector<Intermediate> slots(plan.num_nodes());
  std::vector<uint8_t> done(plan.num_nodes(), 0);
  std::vector<OpMetrics> metrics(order.size());

  // Create the morsel scheduler on this thread before nodes fan out to pool
  // workers; lazy creation inside a worker would race.
  if (MorselsEnabled()) EnsureMorselScheduler();

  {
    std::lock_guard<std::mutex> lock(hash_mu_);
    hash_builds_.clear();
  }
  // One span per plan execution: the nesting parent of every operator span
  // on this thread (query -> [adaptive run ->] execute -> operator).
  // a1 = the engine's query id, correlating this span with
  // /debug/profile/<id> (0 outside an Engine query).
  obs::SpanScope exec_span(obs::SpanKind::kRun, "execute",
                           static_cast<int64_t>(order.size()),
                           static_cast<int64_t>(obs::CurrentQueryId()));
  double t0 = NowNs();
  Status exec_st =
      options_.num_threads > 1
          ? ExecuteParallel(plan, order, &slots, &done, &metrics)
          : ExecuteSerial(plan, order, &slots, &done, &metrics);
  // Uncharge every materialized slot (ExecNode charged each completed
  // node's output durable) before slots are moved out — on the error path
  // too, so a failed query cannot leave drift behind.
  for (int id : order) {
    if (done[id]) obs::UnchargeBytes(slots[id].ByteSize());
  }
  APQ_RETURN_NOT_OK(exec_st);
  out->wall_ns = NowNs() - t0;

  // Attribute hash-build cost to the topologically-first join over each
  // built inner, independent of which worker actually built it.
  {
    std::lock_guard<std::mutex> lock(hash_mu_);
    for (const auto& [col, rows] : hash_builds_) {
      for (size_t i = 0; i < order.size(); ++i) {
        const PlanNode& node = plan.node(order[i]);
        if (node.kind == OpKind::kJoin && node.column2 == col) {
          metrics[i].hash_build_rows += rows;
          break;
        }
      }
    }
    hash_builds_.clear();
  }

  out->metrics = std::move(metrics);
  // Tuple-flow accounting: once per run over the finished metrics, never in
  // an operator or morsel loop.
  static obs::Counter* const queries_total =
      obs::MetricsRegistry::Global().GetCounter("apq_queries_total");
  queries_total->Inc();
  for (const OpMetrics& m : out->metrics) {
    const TupleFlow& tf = TupleFlowFor(m.kind);
    tf.in->Inc(m.tuples_in);
    tf.out->Inc(m.tuples_out);
  }
  const PlanNode& res = plan.node(plan.result_id());
  out->result = slots[res.inputs[0]];
  for (int id : order) {
    out->intermediates.emplace(id, std::move(slots[id]));
  }
  return Status::OK();
}

Status Evaluator::ExecuteSerial(const QueryPlan& plan,
                                const std::vector<int>& order,
                                std::vector<Intermediate>* slots,
                                std::vector<uint8_t>* done,
                                std::vector<OpMetrics>* metrics) {
  ExecContext ctx{slots, done};
  for (size_t i = 0; i < order.size(); ++i) {
    int id = order[i];
    const PlanNode& node = plan.node(id);
    OpMetrics& m = (*metrics)[i];
    m.node_id = id;
    m.kind = node.kind;
    APQ_RETURN_NOT_OK(ExecNode(plan, node, ctx, &(*slots)[id], &m));
    (*done)[id] = 1;
  }
  return Status::OK();
}

Status Evaluator::ExecuteParallel(const QueryPlan& plan,
                                  const std::vector<int>& order,
                                  std::vector<Intermediate>* slots,
                                  std::vector<uint8_t>* done,
                                  std::vector<OpMetrics>* metrics) {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(options_.num_threads);

  const int n = plan.num_nodes();
  // Dataflow bookkeeping over reachable nodes. Duplicate inputs (e.g. a map
  // of x with itself) contribute one pending count per edge.
  std::vector<int> topo_pos(n, -1);
  for (size_t i = 0; i < order.size(); ++i) topo_pos[order[i]] = static_cast<int>(i);
  std::vector<std::vector<int>> consumers(n);
  std::vector<int> pending(n, 0);
  for (int id : order) {
    for (int in : plan.node(id).inputs) {
      consumers[in].push_back(id);
      ++pending[id];
    }
  }

  struct Control {
    std::mutex mu;
    std::condition_variable cv;
    Status error = Status::OK();
    bool failed = false;
    size_t remaining = 0;   // reachable nodes not yet completed
    int in_flight = 0;      // tasks submitted but not finished
  } ctl;
  ctl.remaining = order.size();

  ExecContext ctx{slots, done};

  // Pool workers have no query-id scope of their own; carry the submitting
  // thread's id across so their charges and bills land on the right query.
  const uint64_t query_id = obs::CurrentQueryId();

  // run_node executes one ready node on a worker, then (under the control
  // lock) retires it and collects consumers that became ready. All cross-
  // thread visibility of slots/done flows through ctl.mu: a consumer is only
  // scheduled after its producers published their slots under the lock.
  std::function<void(int)> schedule;
  std::function<void(int)> run_node = [&](int id) {
    obs::QueryIdScope query_scope(query_id);
    bool skip;
    {
      std::lock_guard<std::mutex> lock(ctl.mu);
      skip = ctl.failed;
    }
    Status st = Status::OK();
    Intermediate result;
    OpMetrics m;
    if (!skip) {
      const PlanNode& node = plan.node(id);
      m.node_id = id;
      m.kind = node.kind;
      st = ExecNode(plan, node, ctx, &result, &m);
    }
    std::vector<int> ready;
    {
      std::lock_guard<std::mutex> lock(ctl.mu);
      --ctl.in_flight;
      if (!skip && st.ok()) {
        (*slots)[id] = std::move(result);
        (*metrics)[topo_pos[id]] = m;
        (*done)[id] = 1;
        --ctl.remaining;
        if (!ctl.failed) {
          for (int c : consumers[id]) {
            if (--pending[c] == 0) ready.push_back(c);
          }
        }
      } else if (!skip && !ctl.failed) {
        ctl.failed = true;
        ctl.error = st;
      }
      ctl.in_flight += static_cast<int>(ready.size());
      // Notify while holding the lock: the waiter owns ctl's stack frame and
      // may destroy it the moment it observes the predicate, so an unlocked
      // notify could touch a dead condition_variable.
      if ((ctl.remaining == 0 || ctl.failed) && ctl.in_flight == 0) {
        ctl.cv.notify_all();
      }
    }
    for (int c : ready) schedule(c);
  };
  schedule = [&](int id) { pool_->Submit([&run_node, id] { run_node(id); }); };

  std::vector<int> roots;
  for (int id : order) {
    if (pending[id] == 0) roots.push_back(id);
  }
  {
    std::lock_guard<std::mutex> lock(ctl.mu);
    ctl.in_flight = static_cast<int>(roots.size());
  }
  for (int id : roots) schedule(id);

  std::unique_lock<std::mutex> lock(ctl.mu);
  ctl.cv.wait(lock, [&] {
    return (ctl.remaining == 0 || ctl.failed) && ctl.in_flight == 0;
  });
  return ctl.failed ? ctl.error : Status::OK();
}

Status Evaluator::ExecNode(const QueryPlan& plan, const PlanNode& node,
                           const ExecContext& ctx, Intermediate* result,
                           OpMetrics* m) {
  // One span per operator execution; OpKindName returns static-storage
  // strings, as the ring buffer requires. Tuple counts are attached after
  // the operator ran.
  obs::SpanScope span(obs::SpanKind::kOperator, OpKindName(node.kind),
                      node.id);
  // Per-operator resource attribution (obs/resource_tracker.h): charges and
  // task bills made while this node runs — on this thread or on scheduler
  // workers, which re-install the block — land in `acct`. The block lives on
  // this frame; ParallelFor drains every task before returning, so no
  // billing outlives it.
  obs::OpAcct acct;
  obs::OpAcctScope acct_scope(obs::AccountingEnabled() ? &acct : nullptr);
  const double t0 = NowNs();
  Status st = ExecNodeInner(plan, node, ctx, result, m);
  const double node_wall = NowNs() - t0;
  if (st.ok()) {
    // The node's materialized output stays live until the Execute-level
    // sweep uncharges every slot after the run.
    obs::ChargeBytes(result->ByteSize());
  }
  if (obs::AccountingEnabled()) {
    m->peak_bytes = acct.peak_bytes.load(std::memory_order_relaxed);
    m->queue_wait_ns = acct.queue_wait_ns.load(std::memory_order_relaxed);
    const uint64_t task_cpu = acct.cpu_ns.load(std::memory_order_relaxed);
    if (acct.tasks.load(std::memory_order_relaxed) > 0) {
      // Morselized: summed task time, billed to the query by the scheduler.
      m->cpu_ns = task_cpu;
    } else {
      // Whole-column: never went through the scheduler, so the node wall IS
      // the cpu — record it and bill the owning query directly.
      m->cpu_ns = static_cast<uint64_t>(node_wall > 0 ? node_wall : 0);
      obs::BillTask(obs::CurrentQueryId(), nullptr,
                    static_cast<double>(m->cpu_ns), 0);
    }
  }
  span.set_args(node.id, static_cast<int64_t>(m->tuples_in),
                static_cast<int64_t>(m->tuples_out));
  return st;
}

Status Evaluator::ExecNodeInner(const QueryPlan& plan, const PlanNode& node,
                                const ExecContext& ctx, Intermediate* result,
                                OpMetrics* m) {
  (void)plan;
  switch (node.kind) {
    case OpKind::kSelect: return ExecSelect(node, ctx, result, m);
    case OpKind::kFetchJoin: return ExecFetchJoin(node, ctx, result, m);
    case OpKind::kJoin: return ExecJoin(node, ctx, result, m);
    case OpKind::kGroupBy: return ExecGroupBy(node, ctx, result, m);
    case OpKind::kAggregate: return ExecAggregate(node, ctx, result, m);
    case OpKind::kAggrMerge: return ExecAggrMerge(node, ctx, result, m);
    case OpKind::kExchangeUnion: return ExecUnion(node, ctx, result, m);
    case OpKind::kMap: return ExecMap(node, ctx, result, m);
    case OpKind::kSort:
    case OpKind::kTopN: return ExecSort(node, ctx, result, m);
    case OpKind::kResult: {
      const Intermediate* in;
      APQ_INPUT_OF(ctx, node.inputs[0], &in);
      *result = *in;
      return Status::OK();
    }
  }
  return Status::Unsupported("unknown op kind");
}

Status Evaluator::ExecSelect(const PlanNode& node, const ExecContext& ctx,
                             Intermediate* result, OpMetrics* m) {
  const Column& col = *node.column;
  RowRange range = node.EffectiveRange();
  result->kind = Intermediate::Kind::kRowIds;
  result->origin = range;

  std::vector<uint8_t> like_match;
  bool is_like = node.pred.kind == Predicate::Kind::kLike;
  if (is_like) {
    if (col.type() != DataType::kString) {
      return Status::InvalidArgument("LIKE on non-string column '" + col.name() +
                                     "'");
    }
    like_match = BuildLikeMatch(col, node.pred);
  }

  // Candidate-list form (algebra.subselect with candidates). Candidate
  // scanning is sequential; the value lookups are random gathers into this
  // clone's slice. The output is a subsequence of the candidates (or of the
  // dense range), so it is ascending whenever they are.
  const Intermediate* in = nullptr;
  if (!node.inputs.empty()) {
    APQ_INPUT_OF(ctx, node.inputs[0], &in);
    if (in->kind != Intermediate::Kind::kRowIds) {
      return Status::InvalidArgument("select candidates must be rowids");
    }
    m->tuples_in = in->rowids.size();
    m->random_working_set = range.size() * DataTypeWidth(col.type());
    result->ascending = in->ascending;
  } else {
    m->tuples_in = range.size();
    result->ascending = true;
  }

  if (options_.use_kernels) {
    // An ascending candidate list is narrowed to this clone's range by
    // binary search; the clipping kernel then scans only that span. The
    // metrics still count the whole list scanned (tuples_in above), so the
    // cost model is blind to the narrowing.
    const oid* cand = nullptr;
    size_t ncand = 0;
    if (in) {
      cand = in->rowids.data();
      ncand = in->rowids.size();
      if (in->ascending) NarrowAscending(&cand, &ncand, range);
    }
    // Morsel-driven path first: splits the input across the work-stealing
    // scheduler and concatenates per-morsel fragments in input order. Returns
    // 0 when disabled or when the input fits in a single morsel, in which
    // case the whole-column kernel below runs (identical output either way).
    size_t nm = 0;
    if (MorselsEnabled()) {
      nm = in ? MorselSelectCandidates(col, range, node.pred, &like_match,
                                       cand, ncand, result, m)
              : MorselSelectDense(col, range, node.pred, &like_match, result,
                                  m);
    }
    if (nm == 0) {
      if (in) {
        SelectCandidatesSpan(col, range, node.pred, &like_match, cand, ncand,
                             &result->rowids, &m->random_accesses, simd_ops_);
      } else {
        SelectDense(col, range, node.pred, &like_match, &result->rowids,
                    simd_ops_);
      }
    }
  } else {
    // Scalar reference path: per-row lambda re-dispatching on kind and type.
    bool is_f64 = col.type() == DataType::kFloat64;
    auto test = [&](oid row) -> bool {
      if (is_like) return like_match[col.i64()[row]] != 0;
      if (is_f64) {
        if (node.pred.kind == Predicate::Kind::kRangeF64) {
          double v = col.f64()[row];
          return v >= node.pred.flo && v <= node.pred.fhi;
        }
        return EvalPredI64(node.pred, static_cast<int64_t>(col.f64()[row]));
      }
      if (node.pred.kind == Predicate::Kind::kRangeF64) {
        double v = static_cast<double>(col.i64()[row]);
        return v >= node.pred.flo && v <= node.pred.fhi;
      }
      return EvalPredI64(node.pred, col.i64()[row]);
    };

    if (in) {
      for (oid row : in->rowids) {
        if (!range.Contains(row)) continue;  // boundary clip (Fig 9 adjust)
        ++m->random_accesses;
        if (test(row)) result->rowids.push_back(row);
      }
    } else {
      for (oid row = range.begin; row < range.end; ++row) {
        if (test(row)) result->rowids.push_back(row);
      }
    }
  }
  m->tuples_out = result->rowids.size();
  m->bytes_in = m->tuples_in * DataTypeWidth(col.type());
  m->bytes_out = m->tuples_out * sizeof(oid);
  return Status::OK();
}

Status Evaluator::ExecFetchJoin(const PlanNode& node, const ExecContext& ctx,
                                Intermediate* result, OpMetrics* m) {
  const Column& col = *node.column;
  const Intermediate* in;
  APQ_INPUT_OF(ctx, node.inputs[0], &in);
  RowRange range = node.EffectiveRange();

  const std::vector<oid>* ids = nullptr;
  switch (in->kind) {
    case Intermediate::Kind::kRowIds:
      ids = &in->rowids;
      break;
    case Intermediate::Kind::kPairs:
      ids = (node.fetch_side == FetchSide::kRight) ? &in->rrowids : &in->rowids;
      break;
    default:
      return Status::InvalidArgument("fetchjoin input must be rowids or pairs");
  }

  result->kind = Intermediate::Kind::kValues;
  result->values = MakeVecLike(col);
  result->origin = range;
  m->tuples_in = ids->size();

  // Boundary alignment (paper Figs 9/10): candidate row ids must index into
  // this clone's slice of the fetch target. Under kStrict any out-of-slice id
  // is a misalignment error; under kAdjust the boundaries are clipped and the
  // sibling clones (covering the neighbouring slices) produce the rest.
  bool sliced = node.has_slice;
  if (options_.use_kernels) {
    const bool ascending =
        in->kind == Intermediate::Kind::kRowIds && in->ascending;
    const oid* id_data = ids->data();
    size_t n = ids->size();
    if (ascending && sliced && node.align == AlignPolicy::kAdjust) {
      // The in-slice ids of an ascending list are one contiguous run: check
      // the whole list against the column first (an id beyond it fails as
      // on the clip path), then gather just that run, unclipped.
      APQ_RETURN_NOT_OK(BoundsCheckIds(col, id_data, n, /*ascending=*/true));
      NarrowAscending(&id_data, &n, range);
      sliced = false;
    }
    bool morsels_ran = false;
    if (MorselsEnabled()) {
      APQ_RETURN_NOT_OK(MorselGather(col, id_data, n, range, sliced,
                                     node.align, ascending, result, m,
                                     &morsels_ran));
    }
    if (!morsels_ran) {
      APQ_RETURN_NOT_OK(GatherRowsSpan(col, id_data, n, range, sliced,
                                       node.align, &result->head,
                                       &result->values, simd_ops_, ascending));
    }
  } else {
    result->head.reserve(ids->size());
    result->values.Reserve(ids->size());
    for (oid row : *ids) {
      if (row >= col.size()) {
        return Status::Misaligned("fetchjoin rowid " + std::to_string(row) +
                                  " beyond column '" + col.name() + "' size " +
                                  std::to_string(col.size()));
      }
      if (sliced && !range.Contains(row)) {
        if (node.align == AlignPolicy::kStrict) {
          return Status::Misaligned(
              "fetchjoin rowid " + std::to_string(row) + " outside slice " +
              range.ToString() + " of '" + col.name() + "'");
        }
        continue;  // kAdjust: clip
      }
      result->head.push_back(row);
      GatherInto(col, row, &result->values);
    }
  }
  m->tuples_out = result->values.size();
  // Scanning the candidate list is sequential (tuples_in); only the in-slice
  // candidates cost a random gather into the slice's working set.
  m->random_accesses = result->values.size();
  m->random_working_set = range.size() * DataTypeWidth(col.type());
  m->bytes_in = ids->size() * sizeof(oid);
  m->bytes_out = result->values.size() * 16;
  return Status::OK();
}

Status Evaluator::ExecJoin(const PlanNode& node, const ExecContext& ctx,
                           Intermediate* result, OpMetrics* m) {
  const Column& inner = *node.column2;
  const std::shared_ptr<HashIndex> hash = GetOrBuildHash(inner);
  result->kind = Intermediate::Kind::kPairs;

  // Per-probe matches are appended to the right-side vector by the index;
  // the outer row id is then replicated in one batched fill instead of
  // per-match push_backs.
  auto probe_into = [&hash](int64_t key, oid outer_row, std::vector<oid>* l,
                            std::vector<oid>* r) {
    size_t before = r->size();
    hash->Probe(key, r);
    l->insert(l->end(), r->size() - before, outer_row);
  };
  // Each input shape defines its probe loop once, as a span over input
  // positions [b, e): the morsel-parallel tier (exec/agg) runs it per morsel
  // into ordered pair fragments, and when that declines (input fits one
  // morsel, or the tier is off) the same span runs sequentially over the
  // whole input into the result vectors. One loop body per shape — the
  // parallel and sequential paths cannot diverge.
  auto run_probe = [&](uint64_t n,
                       const std::function<void(uint64_t, uint64_t,
                                                std::vector<oid>*,
                                                std::vector<oid>*)>& span) {
    size_t nm = 0;
    if (ParallelAggEnabled()) nm = MorselJoinProbe(n, span, result, m);
    if (nm == 0) {
      result->rowids.reserve(n);
      result->rrowids.reserve(n);
      span(0, n, &result->rowids, &result->rrowids);
    }
  };

  if (!node.inputs.empty()) {
    const Intermediate* in;
    APQ_INPUT_OF(ctx, node.inputs[0], &in);
    if (in->kind == Intermediate::Kind::kValues) {
      // Probe materialized keys; head gives outer row ids.
      uint64_t n = in->values.size();
      bool has_head = !in->head.empty();
      RowRange range = node.has_slice ? node.slice : in->origin;
      result->origin = range;
      m->tuples_in = n;
      run_probe(n, [&](uint64_t b, uint64_t e, std::vector<oid>* l,
                       std::vector<oid>* r) {
        for (uint64_t i = b; i < e; ++i) {
          oid outer_row = has_head ? in->head[i] : in->origin.begin + i;
          if (node.has_slice && !range.Contains(outer_row)) continue;
          probe_into(in->values.AsInt(i), outer_row, l, r);
        }
      });
    } else if (in->kind == Intermediate::Kind::kRowIds) {
      if (!node.column) {
        return Status::InvalidArgument("join over rowids needs an outer column");
      }
      const Column& outer = *node.column;
      RowRange range = node.has_slice ? node.slice : in->origin;
      result->origin = range;
      m->tuples_in = in->rowids.size();
      // A sliced clone over an ascending list probes only the in-slice span
      // (binary search) instead of clipping every id; the scalar
      // interpreter keeps the clip loop as the reference.
      const oid* cand = in->rowids.data();
      size_t n = in->rowids.size();
      bool clip = node.has_slice;
      if (clip && in->ascending && options_.use_kernels) {
        NarrowAscending(&cand, &n, range);
        clip = false;
      }
      run_probe(n, [&](uint64_t b, uint64_t e, std::vector<oid>* l,
                       std::vector<oid>* r) {
        for (uint64_t i = b; i < e; ++i) {
          oid row = cand[i];
          if (clip && !range.Contains(row)) continue;
          probe_into(outer.i64()[row], row, l, r);
        }
      });
    } else {
      return Status::InvalidArgument("join input must be values or rowids");
    }
  } else {
    // Leaf join: dense scan of the outer column slice.
    const Column& outer = *node.column;
    RowRange range = node.EffectiveRange();
    result->origin = range;
    m->tuples_in = range.size();
    run_probe(range.size(), [&](uint64_t b, uint64_t e, std::vector<oid>* l,
                                std::vector<oid>* r) {
      for (uint64_t i = b; i < e; ++i) {
        oid row = range.begin + i;
        probe_into(outer.i64()[row], row, l, r);
      }
    });
  }
  m->tuples_out = result->rowids.size();
  m->random_accesses = m->tuples_in;
  m->random_working_set = hash->byte_size() + inner.byte_size();
  m->bytes_in = m->tuples_in * 8;
  m->bytes_out = m->tuples_out * 2 * sizeof(oid);
  return Status::OK();
}

Status Evaluator::ExecGroupBy(const PlanNode& node, const ExecContext& ctx,
                              Intermediate* result, OpMetrics* m) {
  result->kind = Intermediate::Kind::kGroups;

  // Sequential ingest (the tiers' differential oracle). The map and key
  // vector are sized up front from the input cardinality — capped, so a
  // low-cardinality group-by over millions of rows doesn't pay an O(n)
  // allocation for a ten-entry map; past the cap, doubling growth costs a
  // handful of rehashes instead of the per-insert regrowth this replaces.
  auto ingest_all = [&](auto key_at, uint64_t n) {
    const uint64_t cap = std::min<uint64_t>(n, uint64_t{1} << 16);
    std::unordered_map<int64_t, int64_t> key_to_gid;
    key_to_gid.reserve(cap);
    result->group_keys.i64.reserve(cap);
    result->group_ids.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      const int64_t key = key_at(i);
      auto [it, inserted] =
          key_to_gid.emplace(key, static_cast<int64_t>(key_to_gid.size()));
      if (inserted) result->group_keys.i64.push_back(key);
      result->group_ids.push_back(it->second);
    }
  };

  if (!node.inputs.empty()) {
    const Intermediate* in;
    APQ_INPUT_OF(ctx, node.inputs[0], &in);
    if (in->kind != Intermediate::Kind::kValues) {
      return Status::InvalidArgument("groupby input must be values");
    }
    result->group_keys.type = in->values.type;
    result->group_keys.dict = in->values.dict;
    result->origin = in->origin;
    result->head = in->head;
    uint64_t n = in->values.size();
    m->tuples_in = n;
    // Parallel ingest (exec/agg tier) needs contiguous int64 keys; f64 group
    // keys (rare — AsInt truncation per row) stay sequential.
    size_t nm = 0;
    if (ParallelAggEnabled() && !in->values.is_f64()) {
      nm = MorselGroupBy(in->values.i64.data(), n, result, m);
    }
    if (nm == 0) {
      ingest_all([&](uint64_t i) { return in->values.AsInt(i); }, n);
    }
  } else {
    const Column& col = *node.column;
    RowRange range = node.EffectiveRange();
    result->group_keys = MakeVecLike(col);
    result->group_keys.type = DataType::kInt64;
    result->origin = range;
    m->tuples_in = range.size();
    size_t nm = 0;
    if (ParallelAggEnabled()) {
      nm = MorselGroupBy(col.i64().data() + range.begin, range.size(), result,
                         m);
    }
    if (nm == 0) {
      ingest_all([&](uint64_t i) { return col.i64()[range.begin + i]; },
                 range.size());
    }
  }
  m->tuples_out = result->group_ids.size();
  m->random_accesses = m->tuples_in;
  // One entry per distinct key (group_keys holds int64 keys on every path).
  m->random_working_set = result->group_keys.i64.size() * 32;
  m->bytes_in = m->tuples_in * 8;
  m->bytes_out = m->tuples_out * 8 + result->group_keys.size() * 8;
  return Status::OK();
}

Status Evaluator::ExecAggregate(const PlanNode& node, const ExecContext& ctx,
                                Intermediate* result, OpMetrics* m) {
  const Intermediate* first;
  APQ_INPUT_OF(ctx, node.inputs[0], &first);

  if (first->kind == Intermediate::Kind::kGroups) {
    // Grouped aggregation.
    const Intermediate* vals = nullptr;
    if (node.inputs.size() == 2) {
      APQ_INPUT_OF(ctx, node.inputs[1], &vals);
      if (vals->kind != Intermediate::Kind::kValues) {
        return Status::InvalidArgument("grouped aggregate values input invalid");
      }
      if (vals->values.size() != first->group_ids.size()) {
        return Status::Misaligned(
            "grouped aggregate: groups have " +
            std::to_string(first->group_ids.size()) + " rows, values " +
            std::to_string(vals->values.size()));
      }
    } else if (node.agg_fn != AggFn::kCount) {
      return Status::InvalidArgument("grouped non-count aggregate needs values");
    }
    size_t ngroups = first->group_keys.size();
    result->kind = Intermediate::Kind::kGroupedAgg;
    result->group_keys = first->group_keys;
    result->agg_counts.assign(ngroups, 0);
    double init = node.agg_fn == AggFn::kMin ? 1e300
                 : node.agg_fn == AggFn::kMax ? -1e300
                                              : 0.0;
    result->agg_vals.assign(ngroups, init);
    uint64_t n = first->group_ids.size();
    m->tuples_in = n;
    // Parallel grouped aggregation (exec/agg tier): per-morsel partial
    // tables merged over group-id ranges. COUNT/MIN/MAX and all counts are
    // bit-identical to the loop below; SUM/AVG merge partial sums in morsel
    // order (deterministic, last-bit reassociation vs the sequential fold).
    size_t nm = 0;
    if (ParallelAggEnabled() && ngroups > 0) {
      nm = MorselGroupedAgg(first->group_ids.data(), n,
                            vals ? &vals->values : nullptr, node.agg_fn,
                            ngroups, result);
    }
    if (nm == 0) {
      for (uint64_t i = 0; i < n; ++i) {
        int64_t g = first->group_ids[i];
        double v = vals ? vals->values.AsDouble(i) : 1.0;
        switch (node.agg_fn) {
          case AggFn::kSum:
          case AggFn::kAvg: result->agg_vals[g] += v; break;
          case AggFn::kCount: result->agg_vals[g] += 1.0; break;
          case AggFn::kMin:
            result->agg_vals[g] = std::min(result->agg_vals[g], v);
            break;
          case AggFn::kMax:
            result->agg_vals[g] = std::max(result->agg_vals[g], v);
            break;
          case AggFn::kNone: break;
        }
        result->agg_counts[g] += 1;
      }
    }
    if (node.agg_fn == AggFn::kAvg) {
      for (size_t g = 0; g < ngroups; ++g) {
        if (result->agg_counts[g] > 0) result->agg_vals[g] /= result->agg_counts[g];
      }
    }
    m->tuples_out = ngroups;
    m->bytes_in = n * 16;
    m->bytes_out = ngroups * 24;
    return Status::OK();
  }

  if (first->kind != Intermediate::Kind::kValues &&
      first->kind != Intermediate::Kind::kRowIds &&
      first->kind != Intermediate::Kind::kPairs) {
    return Status::InvalidArgument("scalar aggregate input must be values/rowids");
  }
  // Scalar aggregation.
  result->kind = Intermediate::Kind::kScalar;
  uint64_t n = first->kind == Intermediate::Kind::kValues ? first->values.size()
                                                          : first->rowids.size();
  m->tuples_in = n;
  double acc = node.agg_fn == AggFn::kMin ? 1e300
              : node.agg_fn == AggFn::kMax ? -1e300
                                           : 0.0;
  if (first->kind == Intermediate::Kind::kValues) {
    // SIMD ingest reductions, only where the result is provably the scalar
    // fold's: COUNT is (double)n exactly while n <= 2^53 (the repeated +1.0
    // fold is exact there); MIN/MAX are lattice folds (and the int64->double
    // cast is monotonic, so min/max commute with it); int64 SUM/AVG go
    // through the guarded exact path (sum_i64_exact declines when the
    // no-rounding proof fails). float64 SUM/AVG always fold sequentially —
    // reassociation would change last bits.
    bool done = false;
    if (options_.use_kernels && n > 0) {
      const ValueVec& vv = first->values;
      switch (node.agg_fn) {
        case AggFn::kCount:
          if (n <= (1ull << 53)) {
            acc = static_cast<double>(n);
            done = true;
          }
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          if (!vv.is_f64() && simd_ops_->minmax_i64 != nullptr) {
            int64_t mn, mx;
            simd_ops_->minmax_i64(vv.i64.data(), n, &mn, &mx);
            acc = node.agg_fn == AggFn::kMin
                      ? std::min(acc, static_cast<double>(mn))
                      : std::max(acc, static_cast<double>(mx));
            done = true;
          } else if (vv.is_f64() && simd_ops_->minmax_f64 != nullptr) {
            double mn, mx;
            simd_ops_->minmax_f64(vv.f64.data(), n, &mn, &mx);
            acc = node.agg_fn == AggFn::kMin ? std::min(acc, mn)
                                             : std::max(acc, mx);
            done = true;
          }
          break;
        case AggFn::kSum:
        case AggFn::kAvg:
          if (!vv.is_f64() && simd_ops_->sum_i64_exact != nullptr) {
            done = simd_ops_->sum_i64_exact(vv.i64.data(), n, &acc);
          }
          break;
        case AggFn::kNone:
          break;
      }
    }
    if (!done) {
      for (uint64_t i = 0; i < n; ++i) {
        double v = first->values.AsDouble(i);
        switch (node.agg_fn) {
          case AggFn::kSum:
          case AggFn::kAvg: acc += v; break;
          case AggFn::kCount: acc += 1.0; break;
          case AggFn::kMin: acc = std::min(acc, v); break;
          case AggFn::kMax: acc = std::max(acc, v); break;
          case AggFn::kNone: break;
        }
      }
    }
  } else {
    if (node.agg_fn != AggFn::kCount) {
      return Status::InvalidArgument("rowid aggregate supports only count");
    }
    acc = static_cast<double>(n);
  }
  if (node.agg_fn == AggFn::kAvg && n > 0) acc /= static_cast<double>(n);
  result->scalar = acc;
  result->scalar_count = static_cast<int64_t>(n);
  m->tuples_out = 1;
  m->bytes_in = n * 8;
  m->bytes_out = 16;
  return Status::OK();
}

Status Evaluator::ExecAggrMerge(const PlanNode& node, const ExecContext& ctx,
                                Intermediate* result, OpMetrics* m) {
  const Intermediate* in;
  APQ_INPUT_OF(ctx, node.inputs[0], &in);
  if (in->kind != Intermediate::Kind::kGroupedAgg) {
    return Status::InvalidArgument("aggrmerge input must be grouped aggregates");
  }
  result->kind = Intermediate::Kind::kGroupedAgg;
  result->group_keys.type = in->group_keys.type;
  result->group_keys.dict = in->group_keys.dict;
  std::unordered_map<int64_t, size_t> key_to_slot;
  uint64_t n = in->agg_vals.size();
  m->tuples_in = n;
  for (uint64_t i = 0; i < n; ++i) {
    int64_t key = in->group_keys.AsInt(i);
    auto [it, inserted] = key_to_slot.emplace(key, result->agg_vals.size());
    if (inserted) {
      result->group_keys.i64.push_back(key);
      double init = node.agg_fn == AggFn::kMin ? 1e300
                   : node.agg_fn == AggFn::kMax ? -1e300
                                                : 0.0;
      result->agg_vals.push_back(init);
      result->agg_counts.push_back(0);
    }
    size_t slot = it->second;
    double v = in->agg_vals[i];
    int64_t c = in->agg_counts.empty() ? 1 : in->agg_counts[i];
    switch (node.agg_fn) {
      case AggFn::kSum:
      case AggFn::kCount: result->agg_vals[slot] += v; break;
      case AggFn::kAvg:
        // Partial avgs are combined weighted by their counts.
        result->agg_vals[slot] += v * static_cast<double>(c);
        break;
      case AggFn::kMin:
        result->agg_vals[slot] = std::min(result->agg_vals[slot], v);
        break;
      case AggFn::kMax:
        result->agg_vals[slot] = std::max(result->agg_vals[slot], v);
        break;
      case AggFn::kNone: break;
    }
    result->agg_counts[slot] += c;
  }
  if (node.agg_fn == AggFn::kAvg) {
    for (size_t g = 0; g < result->agg_vals.size(); ++g) {
      if (result->agg_counts[g] > 0) {
        result->agg_vals[g] /= static_cast<double>(result->agg_counts[g]);
      }
    }
  }
  m->tuples_out = result->agg_vals.size();
  m->bytes_in = n * 24;
  m->bytes_out = m->tuples_out * 24;
  return Status::OK();
}

Status Evaluator::ExecUnion(const PlanNode& node, const ExecContext& ctx,
                            Intermediate* result, OpMetrics* m) {
  std::vector<const Intermediate*> ins;
  ins.reserve(node.inputs.size());
  for (int id : node.inputs) {
    const Intermediate* in;
    APQ_INPUT_OF(ctx, id, &in);
    ins.push_back(in);
  }
  Intermediate::Kind kind = ins[0]->kind;
  // Scalar partials and grouped-aggregate partials mix freely: a scalar is a
  // single-group partial with key 0 (arises when an aggregate clone inside a
  // pack was itself parallelized and replaced by a merge).
  auto agg_like = [](Intermediate::Kind k) {
    return k == Intermediate::Kind::kScalar ||
           k == Intermediate::Kind::kGroupedAgg;
  };
  bool all_agg_like = agg_like(kind);
  for (const auto* in : ins) {
    all_agg_like = all_agg_like && agg_like(in->kind);
    if (in->kind != kind && !all_agg_like) {
      return Status::InvalidArgument(
          std::string("exchange union over mixed kinds: ") +
          Intermediate::KindName(kind) + " vs " +
          Intermediate::KindName(in->kind));
    }
  }
  if (all_agg_like) kind = Intermediate::Kind::kScalar;  // unified path below

  // mat.pack: concatenate preserving input order. Because clones are wired in
  // mutation order over ordered range partitions, concatenation preserves the
  // base-table order (paper §2.3 "the exchange union operator must maintain
  // the correct ordering").
  switch (kind) {
    case Intermediate::Kind::kRowIds: {
      result->kind = kind;
      result->origin = ins[0]->origin;
      size_t total = 0;
      for (const auto* in : ins) total += in->rowids.size();
      result->rowids.reserve(total);
      // Ascending inputs that abut in order (each starts at or after the
      // last id of the one before) concatenate to an ascending list: an
      // O(fan-in) check over the inputs' ends.
      result->ascending = true;
      for (const auto* in : ins) {
        if (!in->ascending ||
            (!in->rowids.empty() && !result->rowids.empty() &&
             in->rowids.front() < result->rowids.back())) {
          result->ascending = false;
        }
        result->rowids.insert(result->rowids.end(), in->rowids.begin(),
                              in->rowids.end());
        result->origin.begin = std::min(result->origin.begin, in->origin.begin);
        result->origin.end = std::max(result->origin.end, in->origin.end);
      }
      break;
    }
    case Intermediate::Kind::kPairs: {
      result->kind = kind;
      result->origin = ins[0]->origin;
      size_t total = 0;
      for (const auto* in : ins) total += in->rowids.size();
      result->rowids.reserve(total);
      result->rrowids.reserve(total);
      for (const auto* in : ins) {
        result->rowids.insert(result->rowids.end(), in->rowids.begin(),
                              in->rowids.end());
        result->rrowids.insert(result->rrowids.end(), in->rrowids.begin(),
                               in->rrowids.end());
        result->origin.begin = std::min(result->origin.begin, in->origin.begin);
        result->origin.end = std::max(result->origin.end, in->origin.end);
      }
      break;
    }
    case Intermediate::Kind::kValues: {
      result->kind = kind;
      result->values.type = ins[0]->values.type;
      result->values.dict = ins[0]->values.dict;
      result->origin = ins[0]->origin;
      size_t total = 0, heads = 0;
      for (const auto* in : ins) {
        total += in->values.size();
        heads += in->head.size();
      }
      result->values.Reserve(total);
      result->head.reserve(heads);
      for (const auto* in : ins) {
        result->values.Append(in->values);
        result->head.insert(result->head.end(), in->head.begin(),
                            in->head.end());
        result->origin.begin = std::min(result->origin.begin, in->origin.begin);
        result->origin.end = std::max(result->origin.end, in->origin.end);
      }
      break;
    }
    case Intermediate::Kind::kScalar: {
      // Packing aggregate partials (scalars and/or grouped partials):
      // represent as one grouped aggregate so a downstream aggrmerge can
      // recombine them; a scalar is a single group with key 0.
      result->kind = Intermediate::Kind::kGroupedAgg;
      result->group_keys.type = DataType::kInt64;
      for (const auto* in : ins) {
        if (in->kind == Intermediate::Kind::kScalar) {
          result->group_keys.i64.push_back(0);
          result->agg_vals.push_back(in->scalar);
          result->agg_counts.push_back(in->scalar_count);
        } else {
          result->group_keys.Append(in->group_keys);
          result->agg_vals.insert(result->agg_vals.end(), in->agg_vals.begin(),
                                  in->agg_vals.end());
          if (in->agg_counts.empty()) {
            result->agg_counts.insert(result->agg_counts.end(),
                                      in->agg_vals.size(), 1);
          } else {
            result->agg_counts.insert(result->agg_counts.end(),
                                      in->agg_counts.begin(),
                                      in->agg_counts.end());
          }
        }
      }
      break;
    }
    case Intermediate::Kind::kGroupedAgg: {
      result->kind = kind;
      result->group_keys.type = ins[0]->group_keys.type;
      result->group_keys.dict = ins[0]->group_keys.dict;
      for (const auto* in : ins) {
        result->group_keys.Append(in->group_keys);
        result->agg_vals.insert(result->agg_vals.end(), in->agg_vals.begin(),
                                in->agg_vals.end());
        if (in->agg_counts.empty()) {
          result->agg_counts.insert(result->agg_counts.end(),
                                    in->agg_vals.size(), 1);
        } else {
          result->agg_counts.insert(result->agg_counts.end(),
                                    in->agg_counts.begin(),
                                    in->agg_counts.end());
        }
      }
      break;
    }
    default:
      return Status::Unsupported("exchange union over kind " +
                                 std::string(Intermediate::KindName(kind)));
  }
  for (const auto* in : ins) m->tuples_in += in->NumRows();
  m->tuples_out = result->NumRows();
  // The union's cost is materialization: it copies all input bytes.
  for (const auto* in : ins) m->bytes_in += in->ByteSize();
  m->bytes_out = result->ByteSize();
  return Status::OK();
}

Status Evaluator::ExecMap(const PlanNode& node, const ExecContext& ctx,
                          Intermediate* result, OpMetrics* m) {
  const Intermediate* a;
  APQ_INPUT_OF(ctx, node.inputs[0], &a);

  // Scalar arithmetic (calc.* over single values, e.g. Q14's final ratio).
  if (a->kind == Intermediate::Kind::kScalar ||
      (a->kind == Intermediate::Kind::kGroupedAgg && a->agg_vals.size() == 1)) {
    double x = a->kind == Intermediate::Kind::kScalar ? a->scalar : a->agg_vals[0];
    double y = node.map_const;
    if (node.inputs.size() == 2) {
      const Intermediate* b2;
      APQ_INPUT_OF(ctx, node.inputs[1], &b2);
      if (b2->kind == Intermediate::Kind::kScalar) y = b2->scalar;
      else if (b2->kind == Intermediate::Kind::kGroupedAgg &&
               b2->agg_vals.size() == 1) y = b2->agg_vals[0];
      else return Status::InvalidArgument("scalar map needs scalar operands");
    }
    result->kind = Intermediate::Kind::kScalar;
    switch (node.map_fn) {
      case MapFn::kAdd: result->scalar = x + y; break;
      case MapFn::kSub: result->scalar = x - y; break;
      case MapFn::kRSub: result->scalar = y - x; break;
      case MapFn::kMul: result->scalar = x * y; break;
      case MapFn::kDiv: result->scalar = y == 0 ? 0 : x / y; break;
      default:
        return Status::InvalidArgument("unsupported scalar map function");
    }
    m->tuples_in = node.inputs.size();
    m->tuples_out = 1;
    return Status::OK();
  }

  if (a->kind != Intermediate::Kind::kValues) {
    return Status::InvalidArgument("map input must be values");
  }
  uint64_t n = a->values.size();
  const Intermediate* b = nullptr;
  if (node.inputs.size() == 2) {
    APQ_INPUT_OF(ctx, node.inputs[1], &b);
    if (b->kind != Intermediate::Kind::kValues || b->values.size() != n) {
      return Status::Misaligned("binary map over misaligned inputs (" +
                                std::to_string(n) + " vs " +
                                std::to_string(b->values.size()) + ")");
    }
  }
  result->kind = Intermediate::Kind::kValues;
  result->values.type = DataType::kFloat64;
  result->values.f64.reserve(n);
  result->head = a->head;
  result->origin = a->origin;
  m->tuples_in = n * (b ? 2 : 1);

  // Flag maps (batstr.like / comparisons folded through ifthenelse).
  std::vector<uint8_t> like_match;
  if (node.map_fn == MapFn::kLikeFlag) {
    if (a->values.dict == nullptr) {
      return Status::InvalidArgument("like-flag map needs dictionary values");
    }
    like_match = BuildLikeMatch(*a->values.dict, node.pred);
  }

  for (uint64_t i = 0; i < n; ++i) {
    double x = a->values.AsDouble(i);
    double y = b ? b->values.AsDouble(i) : node.map_const;
    double r = 0;
    switch (node.map_fn) {
      case MapFn::kAdd: r = x + y; break;
      case MapFn::kSub: r = x - y; break;
      case MapFn::kRSub: r = y - x; break;
      case MapFn::kMul: r = x * y; break;
      case MapFn::kDiv: r = y == 0 ? 0 : x / y; break;
      case MapFn::kLikeFlag:
        r = like_match[a->values.i64[i]] ? 1.0 : 0.0;
        break;
      case MapFn::kEqFlag:
        r = a->values.AsInt(i) == node.pred.lo ? 1.0 : 0.0;
        break;
      case MapFn::kRangeFlag: {
        if (node.pred.kind == Predicate::Kind::kRangeF64) {
          r = (x >= node.pred.flo && x <= node.pred.fhi) ? 1.0 : 0.0;
        } else {
          int64_t v = a->values.AsInt(i);
          r = (v >= node.pred.lo && v <= node.pred.hi) ? 1.0 : 0.0;
        }
        break;
      }
      case MapFn::kNone: break;
    }
    result->values.f64.push_back(r);
  }
  m->tuples_out = n;
  m->bytes_in = m->tuples_in * 8;
  m->bytes_out = n * 8;
  return Status::OK();
}

Status Evaluator::ExecSort(const PlanNode& node, const ExecContext& ctx,
                           Intermediate* result, OpMetrics* m) {
  const Intermediate* in = nullptr;
  if (!node.inputs.empty()) {
    APQ_INPUT_OF(ctx, node.inputs[0], &in);
  }

  // One permutation routine for every input shape: the parallel sort tier
  // (exec/sort/) when morsels are on and the input splits, the sequential
  // shared-comparator sort otherwise. Both emit the unique (value, position)
  // order — std::stable_sort's permutation — so the gather loops below
  // cannot observe which one ran.
  auto sort_perm = [&](const SortKeys& keys, uint64_t n,
                       std::vector<uint64_t>* perm) {
    const uint64_t limit =
        node.kind == OpKind::kTopN && node.limit > 0 && node.limit < n
            ? node.limit
            : 0;
    size_t nm = 0;
    if (ParallelSortEnabled()) {
      nm = MorselSortPerm(keys, n, node.descending, limit, perm, m);
    }
    if (nm == 0) SortPermSequential(keys, n, node.descending, limit, perm);
  };
  auto keys_of = [](const ValueVec& v) {
    return v.is_f64() ? SortKeys{v.f64.data(), nullptr}
                      : SortKeys{nullptr, v.i64.data()};
  };

  if (in != nullptr && in->kind == Intermediate::Kind::kGroupedAgg) {
    // Order grouped aggregates by aggregate value.
    const uint64_t n = in->agg_vals.size();
    std::vector<uint64_t> perm;
    sort_perm(SortKeys{in->agg_vals.data(), nullptr}, n, &perm);
    result->kind = Intermediate::Kind::kGroupedAgg;
    result->group_keys.type = in->group_keys.type;
    result->group_keys.dict = in->group_keys.dict;
    result->group_keys.Reserve(perm.size());
    result->agg_vals.reserve(perm.size());
    result->agg_counts.reserve(perm.size());
    for (uint64_t i : perm) {
      result->group_keys.i64.push_back(in->group_keys.AsInt(i));
      result->agg_vals.push_back(in->agg_vals[i]);
      result->agg_counts.push_back(in->agg_counts.empty() ? 1
                                                          : in->agg_counts[i]);
    }
    m->tuples_in = n;
    m->tuples_out = perm.size();
    m->sort_rows = n;
    m->bytes_in = n * 24;
    m->bytes_out = perm.size() * 24;
    return Status::OK();
  }

  if (in != nullptr && in->kind == Intermediate::Kind::kValues) {
    const uint64_t n = in->values.size();
    std::vector<uint64_t> perm;
    sort_perm(keys_of(in->values), n, &perm);
    GatherPermuted(in->values, in->head.empty() ? nullptr : &in->head, perm,
                   result);
    result->origin = in->origin;
    m->tuples_in = n;
    m->tuples_out = perm.size();
    m->sort_rows = n;
    m->bytes_in = n * 8;
    m->bytes_out = perm.size() * 8;
    return Status::OK();
  }

  if (in != nullptr && in->kind == Intermediate::Kind::kRowIds) {
    // Order a candidate list by its values in `column`, clipping ids outside
    // this clone's slice like the join probe does (sibling clones covering
    // the neighbouring slices sort the rest).
    if (node.column == nullptr) {
      return Status::InvalidArgument("sort over rowids needs a bound column");
    }
    const Column& col = *node.column;
    const RowRange range = node.has_slice ? node.slice : in->origin;
    // An ascending list is bounds-checked whole in O(1), then only its
    // in-slice span is gathered (binary search); other lists and the scalar
    // interpreter check and clip id by id.
    const oid* ids = in->rowids.data();
    size_t n_ids = in->rowids.size();
    bool clip = node.has_slice;
    if (clip && in->ascending && options_.use_kernels) {
      APQ_RETURN_NOT_OK(BoundsCheckIds(col, ids, n_ids, /*ascending=*/true,
                                       "sort"));
      NarrowAscending(&ids, &n_ids, range);
      clip = false;
    }
    ValueVec vals = MakeVecLike(col);
    std::vector<oid> head;
    head.reserve(n_ids);
    vals.Reserve(n_ids);
    for (size_t i = 0; i < n_ids; ++i) {
      const oid row = ids[i];
      if (row >= col.size()) {
        return Status::Misaligned("sort rowid " + std::to_string(row) +
                                  " beyond column '" + col.name() + "' size " +
                                  std::to_string(col.size()));
      }
      if (clip && !range.Contains(row)) continue;
      head.push_back(row);
      GatherInto(col, row, &vals);
    }
    const uint64_t n = vals.size();
    std::vector<uint64_t> perm;
    sort_perm(keys_of(vals), n, &perm);
    GatherPermuted(vals, &head, perm, result);
    result->origin = range;
    m->tuples_in = in->rowids.size();
    m->tuples_out = perm.size();
    m->sort_rows = n;
    m->random_accesses = n;
    m->random_working_set = range.size() * DataTypeWidth(col.type());
    m->bytes_in = in->rowids.size() * sizeof(oid);
    m->bytes_out = perm.size() * 16;
    return Status::OK();
  }

  if (in == nullptr) {
    // Leaf sort: order a base-column slice directly (ORDER BY without a
    // preceding select). Keys point straight at the column storage; the
    // permutation is slice-relative.
    if (node.column == nullptr) {
      return Status::InvalidArgument("leaf sort needs a bound column");
    }
    const Column& col = *node.column;
    const RowRange range = node.EffectiveRange();
    const uint64_t n = range.size();
    const SortKeys keys =
        col.type() == DataType::kFloat64
            ? SortKeys{col.f64().data() + range.begin, nullptr}
            : SortKeys{nullptr, col.i64().data() + range.begin};
    std::vector<uint64_t> perm;
    sort_perm(keys, n, &perm);
    result->kind = Intermediate::Kind::kValues;
    result->values = MakeVecLike(col);
    result->origin = range;
    result->values.Reserve(perm.size());
    result->head.reserve(perm.size());
    for (uint64_t i : perm) {
      const oid row = range.begin + i;
      GatherInto(col, row, &result->values);
      result->head.push_back(row);
    }
    m->tuples_in = n;
    m->tuples_out = perm.size();
    m->sort_rows = n;
    m->bytes_in = n * DataTypeWidth(col.type());
    m->bytes_out = perm.size() * 16;
    return Status::OK();
  }

  return Status::InvalidArgument(
      "sort input must be values, rowids, or grouped aggs");
}

}  // namespace apq
