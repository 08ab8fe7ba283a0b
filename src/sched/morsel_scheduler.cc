#include "sched/morsel_scheduler.h"

#include <sstream>
#include <string>

#include "obs/http_exporter.h"
#include "obs/query_log.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "sched/thread_pool.h"
#include "util/hash_clock.h"

namespace apq {

namespace {

// Live schedulers, for the /debug/workers provider. A scheduler's dtor
// unregisters (under this mutex) before its members are destroyed, so
// WorkersJson never reads a freed instance.
std::mutex g_sched_mu;
std::vector<const MorselScheduler*>& SchedRegistry() {
  static auto* v = new std::vector<const MorselScheduler*>();
  return *v;
}

}  // namespace

// One ParallelFor invocation: the function to run plus completion tracking.
// Lives on the caller's stack; tasks referencing it are guaranteed drained
// before ParallelFor returns. Carries the submitting thread's query id and
// operator accounting block so tasks executed on workers bill the same
// query/operator the caller would have (obs/resource_tracker.h).
struct MorselScheduler::Job {
  const std::function<void(size_t, int)>* fn = nullptr;
  std::atomic<size_t> remaining{0};
  std::mutex mu;
  std::condition_variable done_cv;
  uint64_t query_id = 0;
  obs::OpAcct* op_acct = nullptr;
  double submit_ns = 0;
};

MorselScheduler::MorselScheduler(int num_workers) {
  if (num_workers <= 0) num_workers = ThreadPool::DefaultThreads();
  start_ns_ = NowNs();
  slots_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
  // Resolve the registry instruments before workers spawn: registration
  // takes the registry mutex, the per-task increments are lock-free.
  auto& reg = obs::MetricsRegistry::Global();
  m_tasks_ = reg.GetCounter("apq_sched_tasks_total");
  m_steals_ = reg.GetCounter("apq_sched_steals_total");
  m_steal_fails_ = reg.GetCounter("apq_sched_steal_fails_total");
  m_caller_tasks_ = reg.GetCounter("apq_sched_caller_tasks_total");
  m_queue_depth_ = reg.GetGauge("apq_sched_queue_depth");
  m_steal_latency_ = reg.GetHistogram("apq_sched_steal_latency_ns",
                                      obs::Histogram::LatencyBoundsNs());
  m_worker_tasks_.reserve(num_workers);
  m_worker_steals_.reserve(num_workers);
  m_worker_busy_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    const std::string idx = std::to_string(i);
    m_worker_tasks_.push_back(reg.GetCounter(
        "apq_sched_worker_tasks_total{worker=\"" + idx + "\"}"));
    m_worker_steals_.push_back(reg.GetCounter(
        "apq_sched_worker_steals_total{worker=\"" + idx + "\"}"));
    m_worker_busy_.push_back(reg.GetCounter(
        "apq_sched_worker_busy_ns_total{worker=\"" + idx + "\"}"));
  }
  {
    std::lock_guard<std::mutex> lock(g_sched_mu);
    SchedRegistry().push_back(this);
  }
  obs::SetWorkersProvider(&MorselScheduler::WorkersJson);
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

MorselScheduler::~MorselScheduler() {
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (auto& w : workers_) w.join();
  std::lock_guard<std::mutex> lock(g_sched_mu);
  auto& v = SchedRegistry();
  for (auto it = v.begin(); it != v.end(); ++it) {
    if (*it == this) {
      v.erase(it);
      break;
    }
  }
}

double MorselScheduler::RunTask(const Task& t, int worker) {
  Job* job = t.job;
  const double t0 = NowNs();
  {
    // Reproduce the submitting thread's accounting context: charges and
    // trace events made inside the task land on the owning query/operator
    // even from a stolen execution on a foreign worker.
    obs::QueryIdScope qid_scope(job->query_id);
    obs::OpAcctScope acct_scope(job->op_acct);
    (*job->fn)(t.index, worker);
  }
  const double t1 = NowNs();
  // Outside an Engine query (id 0) the task still bills its operator;
  // BillTask skips the query block.
  if (obs::AccountingEnabled()) {
    obs::BillTask(job->query_id, job->op_acct, t1 - t0,
                  t0 - job->submit_ns);
  }
  // Decrement *under the job lock*: the ParallelFor waiter re-checks
  // `remaining` under this same lock and destroys the stack-allocated Job the
  // moment it observes zero, so the count must never reach zero while this
  // thread has yet to take (or still holds) the mutex.
  std::lock_guard<std::mutex> lock(job->mu);
  if (job->remaining.fetch_sub(1) == 1) job->done_cv.notify_all();
  return t1 - t0;
}

bool MorselScheduler::PopOwn(int w, Task* out) {
  WorkerSlot& s = *slots_[w];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.dq.empty()) return false;
  *out = s.dq.back();  // LIFO: newest-dealt end of the own block, cache-warm
  s.dq.pop_back();
  pending_.fetch_sub(1);
  m_queue_depth_->Add(-1);
  return true;
}

bool MorselScheduler::StealAny(int w, Task* out, int* victim) {
  const int n = static_cast<int>(slots_.size());
  for (int k = 1; k < n; ++k) {
    const int v_idx = (w + k) % n;
    WorkerSlot& v = *slots_[v_idx];
    std::lock_guard<std::mutex> lock(v.mu);
    if (v.dq.empty()) continue;
    *out = v.dq.front();  // FIFO: cold end of the victim's block
    v.dq.pop_front();
    pending_.fetch_sub(1);
    m_queue_depth_->Add(-1);
    if (victim != nullptr) *victim = v_idx;
    return true;
  }
  return false;
}

bool MorselScheduler::PopForJob(Job* job, Task* out) {
  // The submitting thread only helps with its *own* job: it scans every deque
  // for a task of that job (front first — steal side), leaving other jobs'
  // tasks for the worker fleet.
  for (auto& slot : slots_) {
    WorkerSlot& s = *slot;
    std::lock_guard<std::mutex> lock(s.mu);
    for (auto it = s.dq.begin(); it != s.dq.end(); ++it) {
      if (it->job == job) {
        *out = *it;
        s.dq.erase(it);
        pending_.fetch_sub(1);
        m_queue_depth_->Add(-1);
        return true;
      }
    }
  }
  return false;
}

void MorselScheduler::WorkerLoop(int w) {
  for (;;) {
    Task t;
    if (PopOwn(w, &t)) {
      slots_[w]->tasks.fetch_add(1);
      m_tasks_->Inc();
      m_worker_tasks_[w]->Inc();
      const double busy = RunTask(t, w);
      slots_[w]->busy_ns.fetch_add(static_cast<uint64_t>(busy));
      m_worker_busy_[w]->Inc(static_cast<uint64_t>(busy));
      continue;
    }
    // The steal path is off the hot path (own deque dry), so it can afford a
    // clock read for the steal-latency histogram even with tracing off.
    const double steal_t0 = NowNs();
    int victim = -1;
    if (StealAny(w, &t, &victim)) {
      slots_[w]->tasks.fetch_add(1);
      slots_[w]->steals.fetch_add(1);
      m_tasks_->Inc();
      m_worker_tasks_[w]->Inc();
      m_steals_->Inc();
      m_worker_steals_[w]->Inc();
      m_steal_latency_->Observe(NowNs() - steal_t0);
      obs::EmitInstant(obs::SpanKind::kSteal, "steal", w, victim);
      const double busy = RunTask(t, w);
      slots_[w]->busy_ns.fetch_add(static_cast<uint64_t>(busy));
      m_worker_busy_[w]->Inc(static_cast<uint64_t>(busy));
      continue;
    }
    // Own deque dry AND every victim dry: this worker is about to go idle.
    slots_[w]->steal_fails.fetch_add(1);
    m_steal_fails_->Inc();
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] { return stop_ || pending_.load() > 0; });
    if (stop_) return;  // all ParallelFor calls returned: nothing pending
  }
}

void MorselScheduler::ParallelFor(size_t num_tasks,
                                  const std::function<void(size_t, int)>& fn) {
  if (num_tasks == 0) return;
  Job job;
  job.fn = &fn;
  job.remaining.store(num_tasks);
  job.query_id = obs::CurrentQueryId();
  job.op_acct = obs::CurrentOpAcct();
  job.submit_ns = NowNs();

  // pending_ is raised *before* any task becomes claimable, so a worker
  // racing ahead of the dealing loop can never decrement it below zero; the
  // lock pairs with the workers' idle predicate to avoid lost wakeups.
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    pending_.fetch_add(num_tasks);
  }
  m_queue_depth_->Add(static_cast<int64_t>(num_tasks));
  // Deal contiguous blocks of morsels across the deques, rotating the first
  // recipient per job so concurrent small jobs don't all pile onto worker 0.
  const size_t nw = slots_.size();
  const size_t base = next_deal_.fetch_add(1) % nw;
  const size_t chunk = (num_tasks + nw - 1) / nw;
  for (size_t w = 0; w < nw; ++w) {
    const size_t lo = w * chunk;
    if (lo >= num_tasks) break;
    const size_t hi = lo + chunk < num_tasks ? lo + chunk : num_tasks;
    WorkerSlot& s = *slots_[(base + w) % nw];
    std::lock_guard<std::mutex> lock(s.mu);
    for (size_t i = lo; i < hi; ++i) s.dq.push_back(Task{&job, i});
  }
  idle_cv_.notify_all();
  MaybeSampleFlight();

  // Help with this job until its unclaimed tasks are gone, then wait for the
  // in-flight stragglers running on workers.
  Task t;
  while (job.remaining.load() > 0 && PopForJob(&job, &t)) {
    caller_tasks_.fetch_add(1);
    m_tasks_->Inc();
    m_caller_tasks_->Inc();
    const double busy = RunTask(t, kCallerWorker);
    caller_busy_ns_.fetch_add(static_cast<uint64_t>(busy));
  }
  std::unique_lock<std::mutex> lock(job.mu);
  job.done_cv.wait(lock, [&job] { return job.remaining.load() == 0; });
}

void MorselScheduler::MaybeSampleFlight() {
  const double now = NowNs();
  uint64_t last = flight_last_ns_.load(std::memory_order_relaxed);
  if (now - static_cast<double>(last) < kFlightIntervalNs) return;
  if (!flight_last_ns_.compare_exchange_strong(
          last, static_cast<uint64_t>(now), std::memory_order_relaxed)) {
    return;  // a concurrent submitter took this sample slot
  }
  MorselFlightSample s;
  s.t_ns = now - start_ns_;
  s.pending = pending_.load();
  s.tasks = total_tasks();
  uint64_t steals = 0;
  for (const auto& slot : slots_) steals += slot->steals.load();
  s.steals = steals;
  std::lock_guard<std::mutex> lock(flight_mu_);
  flight_.push_back(s);
  while (flight_.size() > kFlightCapacity) flight_.pop_front();
}

std::vector<MorselWorkerStats> MorselScheduler::worker_stats() const {
  std::vector<MorselWorkerStats> out(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    out[i].tasks = slots_[i]->tasks.load();
    out[i].steals = slots_[i]->steals.load();
    out[i].steal_fails = slots_[i]->steal_fails.load();
    out[i].busy_ns = slots_[i]->busy_ns.load();
  }
  return out;
}

uint64_t MorselScheduler::total_tasks() const {
  uint64_t total = caller_tasks_.load();
  for (const auto& s : slots_) total += s->tasks.load();
  return total;
}

double MorselScheduler::uptime_ns() const { return NowNs() - start_ns_; }

std::vector<MorselFlightSample> MorselScheduler::flight_samples() const {
  std::lock_guard<std::mutex> lock(flight_mu_);
  return std::vector<MorselFlightSample>(flight_.begin(), flight_.end());
}

std::string MorselScheduler::DebugJson() const {
  const double uptime = uptime_ns();
  std::ostringstream os;
  os.precision(15);
  os << "{\"workers\":" << num_workers() << ",\"uptime_ns\":" << uptime
     << ",\"pending\":" << pending_.load()
     << ",\"caller_tasks\":" << caller_tasks_.load()
     << ",\"caller_busy_ns\":" << caller_busy_ns_.load()
     << ",\"total_tasks\":" << total_tasks() << ",\"worker_list\":[";
  for (size_t i = 0; i < slots_.size(); ++i) {
    const WorkerSlot& s = *slots_[i];
    const double busy = static_cast<double>(s.busy_ns.load());
    // idle is derived (uptime − busy), clamped: a task finishing between the
    // two reads can make busy momentarily exceed the uptime snapshot.
    const double idle = uptime > busy ? uptime - busy : 0;
    os << (i == 0 ? "" : ",") << "{\"worker\":" << i
       << ",\"tasks\":" << s.tasks.load() << ",\"steals\":" << s.steals.load()
       << ",\"steal_fails\":" << s.steal_fails.load()
       << ",\"busy_ns\":" << busy << ",\"idle_ns\":" << idle << "}";
  }
  os << "],\"flight\":[";
  const std::vector<MorselFlightSample> samples = flight_samples();
  for (size_t i = 0; i < samples.size(); ++i) {
    const MorselFlightSample& f = samples[i];
    os << (i == 0 ? "" : ",") << "{\"t_ns\":" << f.t_ns
       << ",\"pending\":" << f.pending << ",\"tasks\":" << f.tasks
       << ",\"steals\":" << f.steals << "}";
  }
  os << "]}";
  return os.str();
}

std::string MorselScheduler::WorkersJson() {
  std::ostringstream os;
  os << "{\"schedulers\":[";
  std::lock_guard<std::mutex> lock(g_sched_mu);
  const auto& v = SchedRegistry();
  for (size_t i = 0; i < v.size(); ++i) {
    os << (i == 0 ? "" : ",") << v[i]->DebugJson();
  }
  os << "]}";
  return os.str();
}

const std::shared_ptr<MorselScheduler>& MorselScheduler::Shared() {
  static const std::shared_ptr<MorselScheduler> shared =
      std::make_shared<MorselScheduler>(0);
  return shared;
}

}  // namespace apq
