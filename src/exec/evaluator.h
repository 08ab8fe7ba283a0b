// Plan interpretation: executes a QueryPlan on real data, producing exact
// results plus per-operator workload metrics for the cost model.
//
// Results are always exact regardless of how the plan was parallelized. Two
// timings exist for a run: the virtual-time simulator (src/sched/simulator.h)
// converts the metrics gathered here into the paper machine's time, and the
// evaluator itself can execute independent plan nodes (exchange clone
// subtrees) concurrently on a real thread pool for hardware wall-clock truth.
//
// The hot path is vectorized: selects and fetch-joins run through the batch
// kernels in exec/kernels.h (selection vectors, branch-hoisted tight loops).
// The original row-at-a-time interpreter is retained behind
// ExecOptions::use_kernels = false as a reference implementation for
// correctness tests and the scalar-vs-vectorized microbenchmarks.
#ifndef APQ_EXEC_EVALUATOR_H_
#define APQ_EXEC_EVALUATOR_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "exec/hash_index.h"
#include "exec/intermediate.h"
#include "exec/morsel_source.h"
#include "exec/simd/simd_ops.h"
#include "exec/sort/sort_runs.h"
#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "sched/morsel_scheduler.h"
#include "sched/thread_pool.h"
#include "util/status.h"

namespace apq {

/// \brief What one operator execution did, in machine-independent units.
/// The cost model converts this into virtual time.
struct OpMetrics {
  int node_id = -1;
  OpKind kind = OpKind::kResult;
  uint64_t tuples_in = 0;    // tuples scanned / probed / consumed
  uint64_t tuples_out = 0;   // tuples produced
  uint64_t bytes_in = 0;     // bytes read (sequential)
  uint64_t bytes_out = 0;    // bytes materialized
  uint64_t random_accesses = 0;       // gathers / hash probes
  uint64_t random_working_set = 0;    // bytes of the randomly accessed region
  uint64_t hash_build_rows = 0;       // rows inserted into a new hash index
  uint64_t sort_rows = 0;             // rows sorted (n log n term)
  uint64_t peak_bytes = 0;   // peak bytes charged while this operator ran
  uint64_t cpu_ns = 0;       // summed task execution time (node wall when
                             // the operator ran whole-column, no tasks)
  uint64_t queue_wait_ns = 0;  // summed scheduler queue-wait of its tasks
  /// Per-morsel breakdown in morsel (= input) order; empty when the operator
  /// ran whole-column. Morsel tuple counts sum exactly to tuples_in/out,
  /// except where the operator ran over less than its input: a sliced clone
  /// that narrowed an ascending candidate list splits only the in-slice span
  /// (its morsels sum to the in-slice count), and a sort's runs sum to
  /// sort_rows.
  std::vector<MorselMetrics> morsels;
};

/// \brief Result of interpreting a plan.
struct EvalResult {
  /// Intermediates of reachable nodes, indexed by node id.
  std::unordered_map<int, Intermediate> intermediates;
  /// Per-node workload metrics, in topological order of execution
  /// (deterministic: identical for serial and threaded execution).
  std::vector<OpMetrics> metrics;
  /// The intermediate feeding the result node.
  Intermediate result;
  /// Wall-clock nanoseconds the evaluator spent executing the plan.
  double wall_ns = 0;
};

/// \brief Execution backend configuration.
struct ExecOptions {
  /// Use the vectorized selection-vector kernels (exec/kernels.h). When
  /// false, the original scalar row-at-a-time interpreter runs instead.
  bool use_kernels = true;
  /// Worker threads for plan-node execution. 1 = serial (in the calling
  /// thread); >1 = independent nodes (exchange clone subtrees) run
  /// concurrently on a shared thread pool. 0 = one per hardware thread.
  int num_threads = 1;
  /// Morsel-driven intra-operator execution: dense selects, candidate
  /// selects, and fetch-join gathers are split into fixed-size morsels and
  /// executed on a work-stealing scheduler (sched/morsel_scheduler.h), then
  /// concatenated in morsel order — bit-identical to whole-column kernels.
  /// Requires use_kernels; the scalar interpreter is never morselized.
  /// The APQ_FORCE_MORSELS=1 environment variable overrides this to true.
  bool use_morsels = false;
  /// Rows per morsel (0 = kDefaultMorselRows).
  uint64_t morsel_rows = kDefaultMorselRows;
  /// Workers of a lazily created morsel scheduler (0 = one per hardware
  /// thread). Ignored when a shared scheduler is injected via
  /// set_morsel_scheduler (the multi-query configuration).
  int morsel_workers = 0;
  /// Morsel-parallel aggregation and hash-join probe (exec/agg/): group-by
  /// ingest runs through thread-local AggTables with a partitioned merge
  /// (group ids renumbered to the scalar first-occurrence order), grouped
  /// aggregation through per-morsel partials merged by group-id range, and
  /// the join probe produces ordered pair fragments. Only active when
  /// morsels are enabled (use_morsels / APQ_FORCE_MORSELS); flip this off to
  /// keep selects/gathers morselized while aggregation and probe stay
  /// whole-column.
  bool use_parallel_agg = true;
  /// Morsel-parallel sort (exec/sort/): kSort/kTopN inputs are sorted into
  /// morsel-local stable runs combined by a merge-path-partitioned
  /// loser-tree k-way merge — every comparison keyed by (value, original
  /// position), so the permutation is bit-identical to the scalar stable
  /// sort at any morsel size, worker count, or steal order. Bounded top-N
  /// keeps a limit-sized selection per run and merges only runs x limit
  /// candidates. Only active when morsels are enabled (use_morsels /
  /// APQ_FORCE_MORSELS, which forces this tier on too).
  bool use_parallel_sort = true;
  /// SIMD dispatch tier for the vectorized kernels: kAuto resolves to the
  /// best level the CPU supports (cpuid probe), lower levels pin the tier
  /// (for differential testing). The APQ_SIMD environment variable
  /// (scalar|avx2|avx512, validated like APQ_FORCE_MORSELS) overrides this.
  /// Only meaningful with use_kernels; outputs are bit-identical at every
  /// level. Levels above what the CPU/build supports clamp down.
  simd::SimdLevel simd_level = simd::SimdLevel::kAuto;
  /// Enable span tracing (obs/trace.h) for executions through this
  /// evaluator: operator spans, sampled morsel spans, steal events. Enabling
  /// is process-wide and sticky (the ring buffers are shared); a valid
  /// APQ_TRACE environment variable also enables it and adds an at-exit
  /// Chrome-trace export. Tracing never changes results — only timings are
  /// observed — and costs one branch per span site when off.
  bool trace = false;
  /// Honor per-node morsel-size overrides injected between runs via
  /// SetAdaptiveMorselRows: the adaptive loop shrinks the morsel size of
  /// operators whose previous run showed high intra-operator skew, so
  /// work-stealing rebalances within the operator (more, smaller tasks)
  /// before the mutator has even re-partitioned it. Results stay
  /// bit-identical at any morsel size; this only changes task granularity.
  bool adaptive_morsel_rows = true;
};

/// Registers the apq_build_info metric (constant 1, labeled with the
/// version, the resolved SIMD dispatch tier, and the build type) once per
/// process, so scraped fleets can correlate perf deltas with binaries.
/// Called from set_options after SIMD resolution; later tier changes keep
/// the first registration (one build = one info series).
void RegisterBuildInfo(simd::SimdLevel level);

/// \brief Interprets plans operator-at-a-time (like MonetDB's MAL
/// interpreter). Hash indexes for join inners are cached across operators and
/// across repeated invocations of the same Evaluator, mirroring BAT hash
/// caching; the cache is thread-safe so parallel join clones share one build.
class Evaluator {
 public:
  Evaluator() = default;
  explicit Evaluator(ExecOptions options) { set_options(options); }

  void set_options(ExecOptions options) {
    if (options.num_threads == 0) {
      options.num_threads = ThreadPool::DefaultThreads();
    }
    if (options.num_threads < 1) options.num_threads = 1;
    if (options_.num_threads != options.num_threads) pool_.reset();
    // A lazily created scheduler is rebuilt at the new worker count; an
    // injected (shared) scheduler is never dropped by an options change.
    if (options_.morsel_workers != options.morsel_workers &&
        morsel_sched_owned_) {
      morsel_sched_.reset();
      morsel_sched_owned_ = false;
    }
    options_ = options;
    // Resolved once per options change, not per kernel call: env override >
    // requested level > cpuid probe. Scalar tier = all-null table = the
    // generic loops.
    simd_ops_ = &simd::Resolve(options_.simd_level);
    // Observability wiring (rare path: once per options change). APQ_TRACE /
    // APQ_METRICS are read here so benches and examples that never touch
    // Engine still export at exit; the gauge mirrors the dispatch tier the
    // kernels actually run with.
    obs::InitFromEnv();
    if (options_.trace) obs::SetTraceEnabled(true);
    obs::MetricsRegistry::Global()
        .GetGauge("apq_simd_dispatch_level")
        ->Set(static_cast<int64_t>(simd_ops_->level));
    RegisterBuildInfo(simd_ops_->level);
  }
  const ExecOptions& options() const { return options_; }
  void set_use_kernels(bool on) { options_.use_kernels = on; }
  void set_num_threads(int n) {
    ExecOptions o = options_;
    o.num_threads = n;
    set_options(o);
  }

  /// Executes `plan`; on success fills `out`.
  Status Execute(const QueryPlan& plan, EvalResult* out);

  /// Drops cached hash indexes (e.g. between unrelated experiments). Must not
  /// race with an Execute that is building hashes.
  void ClearCaches() {
    std::lock_guard<std::mutex> lock(hash_mu_);
    for (const auto& [col, slot] : hash_cache_) {
      if (slot && slot->index) {
        obs::AddHashCacheBytes(
            -static_cast<int64_t>(slot->index->byte_size()));
      }
    }
    hash_cache_.clear();
  }

  /// Injects a (possibly shared) morsel scheduler. Concurrent queries that
  /// share one scheduler multiplex one worker fleet instead of spawning a
  /// pool per query; Engine wires its scheduler through here.
  void set_morsel_scheduler(std::shared_ptr<MorselScheduler> sched) {
    morsel_sched_ = std::move(sched);
    morsel_sched_owned_ = false;
  }
  const std::shared_ptr<MorselScheduler>& morsel_scheduler() const {
    return morsel_sched_;
  }
  /// Returns the morsel scheduler, creating one (options().morsel_workers
  /// workers) if none was injected.
  const std::shared_ptr<MorselScheduler>& EnsureMorselScheduler();

  /// True when morsel-driven execution applies: use_morsels (or the
  /// APQ_FORCE_MORSELS=1 environment override) and the vectorized kernels.
  bool MorselsEnabled() const;

  /// True when the parallel aggregation/probe tier applies: morsels enabled
  /// and use_parallel_agg (APQ_FORCE_MORSELS forces this tier on too, so a
  /// forced CI run exercises every morselized operator).
  bool ParallelAggEnabled() const;

  /// True when the parallel sort tier applies: morsels enabled and
  /// use_parallel_sort (APQ_FORCE_MORSELS forces this tier on too).
  bool ParallelSortEnabled() const;

  /// Rows per morsel actually used: options().morsel_rows, unless
  /// APQ_FORCE_MORSELS carries an explicit row count (e.g. =4096).
  uint64_t EffectiveMorselRows() const;

  /// The validated APQ_FORCE_MORSELS value: 0 = unset/off/rejected, 1 = on
  /// with the configured size, >1 = forced rows per morsel. Exposed so tests
  /// reason about the forced size with the evaluator's own parsing instead
  /// of re-implementing it.
  static uint64_t ForcedEnvMorselRows();

  /// The SIMD dispatch table this evaluator's kernels run with (after the
  /// APQ_SIMD override and cpuid clamping). Never null once options are set.
  const simd::SimdOps* simd_ops() const { return simd_ops_; }

  /// Rows per morsel for one specific plan node: the adaptive override when
  /// one was injected (and options().adaptive_morsel_rows is on), otherwise
  /// EffectiveMorselRows().
  uint64_t MorselRowsForNode(int node_id) const;

  /// Injects per-node morsel-size overrides for subsequent Execute() calls
  /// (the adaptive executor's runtime response to observed morsel skew).
  /// Replaces any previous hints; must not be called concurrently with an
  /// Execute(). Node ids refer to the next plan to be executed — mutated
  /// clones get fresh ids and therefore no stale hints.
  void SetAdaptiveMorselRows(std::unordered_map<int, uint64_t> rows_by_node) {
    adaptive_rows_ = std::move(rows_by_node);
  }
  const std::unordered_map<int, uint64_t>& adaptive_morsel_rows() const {
    return adaptive_rows_;
  }

 private:
  /// Read view over per-node result slots during one execution. A node id is
  /// readable iff done[id] is set, which the schedulers guarantee for every
  /// input before a node runs.
  struct ExecContext {
    const std::vector<Intermediate>* slots = nullptr;
    const std::vector<uint8_t>* done = nullptr;
  };

  Status ExecuteSerial(const QueryPlan& plan, const std::vector<int>& order,
                       std::vector<Intermediate>* slots,
                       std::vector<uint8_t>* done,
                       std::vector<OpMetrics>* metrics);
  Status ExecuteParallel(const QueryPlan& plan, const std::vector<int>& order,
                         std::vector<Intermediate>* slots,
                         std::vector<uint8_t>* done,
                         std::vector<OpMetrics>* metrics);

  Status ExecNode(const QueryPlan& plan, const PlanNode& node,
                  const ExecContext& ctx, Intermediate* result, OpMetrics* m);
  Status ExecNodeInner(const QueryPlan& plan, const PlanNode& node,
                       const ExecContext& ctx, Intermediate* result,
                       OpMetrics* m);

  Status ExecSelect(const PlanNode& node, const ExecContext& ctx,
                    Intermediate* result, OpMetrics* m);
  Status ExecFetchJoin(const PlanNode& node, const ExecContext& ctx,
                       Intermediate* result, OpMetrics* m);
  Status ExecJoin(const PlanNode& node, const ExecContext& ctx,
                  Intermediate* result, OpMetrics* m);
  Status ExecGroupBy(const PlanNode& node, const ExecContext& ctx,
                     Intermediate* result, OpMetrics* m);
  Status ExecAggregate(const PlanNode& node, const ExecContext& ctx,
                       Intermediate* result, OpMetrics* m);
  Status ExecAggrMerge(const PlanNode& node, const ExecContext& ctx,
                       Intermediate* result, OpMetrics* m);
  Status ExecUnion(const PlanNode& node, const ExecContext& ctx,
                   Intermediate* result, OpMetrics* m);
  Status ExecMap(const PlanNode& node, const ExecContext& ctx,
                 Intermediate* result, OpMetrics* m);
  Status ExecSort(const PlanNode& node, const ExecContext& ctx,
                  Intermediate* result, OpMetrics* m);

  /// Morsel-parallel select over a dense range. Returns the number of morsels
  /// run (0 = caller should take the whole-column path).
  size_t MorselSelectDense(const Column& col, RowRange range,
                           const Predicate& pred,
                           const std::vector<uint8_t>* like_match,
                           Intermediate* result, OpMetrics* m);
  /// Morsel-parallel select over the candidate span candidates[0..n).
  size_t MorselSelectCandidates(const Column& col, RowRange range,
                                const Predicate& pred,
                                const std::vector<uint8_t>* like_match,
                                const oid* candidates, size_t n,
                                Intermediate* result, OpMetrics* m);
  /// Morsel-parallel fetch-join gather over ids[0..n); on success appends to
  /// result->head / result->values. `*ran` reports whether the morsel path
  /// was taken. `ascending` only speeds up the bounds check.
  Status MorselGather(const Column& col, const oid* ids, size_t n,
                      RowRange range, bool sliced, AlignPolicy align,
                      bool ascending, Intermediate* result, OpMetrics* m,
                      bool* ran);

  /// Morsel-parallel group-by ingest over keys[0..n) (exec/agg/): fills
  /// result->group_ids / group_keys.i64 in the scalar first-occurrence
  /// order. Returns morsels run (0 = take the sequential path).
  size_t MorselGroupBy(const int64_t* keys, uint64_t n, Intermediate* result,
                       OpMetrics* m);

  /// Morsel-parallel grouped aggregation into the pre-initialized
  /// result->agg_vals / agg_counts (AVG left undivided, as sequentially).
  size_t MorselGroupedAgg(const int64_t* gids, uint64_t n,
                          const ValueVec* vals, AggFn fn, uint64_t ngroups,
                          Intermediate* result);

  /// Morsel-parallel permutation sort (exec/sort/): fills `perm` with the
  /// first min(limit, n) positions (limit = 0 sorts everything) of [0, n)
  /// in (key value, position) order — bit-identical to the scalar stable
  /// sort — and lands per-run / per-merge-chunk counts in `m->morsels`:
  /// run tasks carry tuples_in (summing to n = the operator's sort_rows;
  /// equal to its tuples_in except for slice-clipped rowid inputs, which
  /// drop out-of-slice candidates before sorting) and merge chunks carry
  /// tuples_out (summing to the operator's tuples_out). Returns the number
  /// of runs; 0 = caller runs SortPermSequential (nothing written).
  size_t MorselSortPerm(const SortKeys& keys, uint64_t n, bool descending,
                        uint64_t limit, std::vector<uint64_t>* perm,
                        OpMetrics* m);

  /// Morsel-parallel hash-join probe: `probe_span(begin, end, l, r)` probes
  /// input positions [begin, end) appending matches to the fragment vectors;
  /// fragments are concatenated in morsel order onto result->rowids/rrowids
  /// — bit-identical to one sequential probe over [0, n).
  size_t MorselJoinProbe(
      uint64_t n,
      const std::function<void(uint64_t, uint64_t, std::vector<oid>*,
                               std::vector<oid>*)>& probe_span,
      Intermediate* result, OpMetrics* m);

  std::shared_ptr<HashIndex> GetOrBuildHash(const Column& column);

  ExecOptions options_;
  /// Active SIMD dispatch table (see set_options). The default matches the
  /// default ExecOptions: auto-resolved.
  const simd::SimdOps* simd_ops_ = &simd::Resolve(simd::SimdLevel::kAuto);
  std::unique_ptr<ThreadPool> pool_;  // lazily created when num_threads > 1
  std::shared_ptr<MorselScheduler> morsel_sched_;  // injected or lazy
  bool morsel_sched_owned_ = false;   // true iff lazily created (not injected)
  /// Per-node morsel-size overrides for the next Execute (adaptive skew
  /// response); read-only during execution.
  std::unordered_map<int, uint64_t> adaptive_rows_;

  /// One cache entry per join-inner column. The per-entry once_flag is the
  /// build latch: concurrent first builds of *different* inners proceed in
  /// parallel (hash_mu_ only guards the map itself), while clones racing for
  /// the *same* inner still share a single build.
  struct HashSlot {
    std::once_flag built;
    std::shared_ptr<HashIndex> index;
  };

  std::mutex hash_mu_;  // guards hash_cache_ (the map) and hash_builds_
  std::unordered_map<const Column*, std::shared_ptr<HashSlot>> hash_cache_;
  /// Hash builds performed during the current Execute. Build cost is
  /// attributed after the run to the topologically-first join over the built
  /// column, so hash_build_rows in the metrics is identical for serial and
  /// threaded execution (under threads, any clone may race to build first).
  std::vector<std::pair<const Column*, uint64_t>> hash_builds_;
};

}  // namespace apq

#endif  // APQ_EXEC_EVALUATOR_H_
