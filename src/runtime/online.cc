#include "runtime/online.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/stages.h"
#include "obs/trace.h"

namespace dlacep {

namespace {

// Producer-side retry policy for transient (kUnavailable) source reads:
// exponential backoff from 1ms, at most 8 attempts per read before the
// source is declared dead. The counter resets on every successful read,
// so a flaky-but-alive source never accumulates toward the limit.
constexpr int kMaxSourceRetries = 8;
constexpr double kSourceBackoffBaseSeconds = 1e-3;

// Burst sizes: the router pops up to this many arrivals per
// ingest-queue lock, and a shard worker pops up to this many window
// tasks per work-ring lock. Bursts amortize the mutex
// atomics and futex wakeups; correctness never depends on the values.
constexpr size_t kRouterIngestBurst = 64;
constexpr size_t kShardWorkBurst = 16;

}  // namespace

/// Per-Run mutable state. Threading contract: the producer thread only
/// touches `queue` (and its own local counters); shard workers only
/// touch their own Shard (rings, stats) and read their window's detached
/// EventStream; everything else is owned by the router (caller) thread.
struct OnlineDlacep::RunState {
  RunState(size_t queue_capacity, const OverloadConfig& overload,
           const HealthConfig& health)
      : queue(queue_capacity), controller(overload), guard(health) {}

  // Queue element: the event plus its push timestamp, so queue-wait is
  // measured exactly (the stamp travels with the event through the
  // queue's own synchronization — no side-channel, no race, correct
  // under drop_when_full). Stamping is skipped while metrics are off.
  struct Arrival {
    Event event;
    double pushed_seconds = 0.0;
  };

  RingQueue<Arrival> queue;
  std::shared_ptr<const Schema> schema;

  // Router: arrivals not yet consumed by every window that needs
  // them. `buffer_offset` is the global stream index of buffer.front();
  // events below the next window begin are pruned after dispatch, so
  // memory stays O(mark_size + queue), not O(stream).
  std::deque<Event> buffer;
  size_t buffer_offset = 0;
  size_t appended = 0;
  size_t next_begin = 0;
  size_t windows_dispatched = 0;
  size_t last_end = 0;

  // Dispatch → merge handoff. The router merges strictly in dispatch
  // sequence order, which is what makes the merged mark stream
  // deterministic across shard counts.
  size_t in_flight = 0;
  size_t next_merge = 0;

  // Router-side shadow of every dispatched-but-unmerged window: a
  // deadline abandon synthesizes a quarantined stand-in from it without
  // the worker's cooperation. Keyed by dispatch sequence.
  struct Pending {
    size_t begin = 0;
    int level = 0;
    double close_seconds = 0.0;
    std::shared_ptr<EventStream> events;
  };
  std::map<size_t, Pending> pending;

  // One closed window forwarded to its owner shard (the exchange
  // stage). The level/probe decisions were already taken by the router
  // at close time; the worker only marks.
  struct WindowTask {
    size_t seq = 0;
    size_t begin = 0;
    int level = 0;
    bool probe = false;
    double close_seconds = 0.0;
    std::shared_ptr<EventStream> events;
  };
  // One finished window on a shard's completion ring. A shard's worker
  // is FIFO over its work ring, so these come off sequence-ordered per
  // shard — the property the cross-shard merge relies on.
  struct SeqDone {
    size_t seq = 0;
    DoneWindow window;
  };
  struct Shard {
    Shard(size_t work_capacity, size_t done_capacity)
        : work(work_capacity), done(done_capacity) {}
    RingQueue<WindowTask> work;  ///< router -> worker (SPSC)
    RingQueue<SeqDone> done;     ///< worker -> router (SPSC)
    ShardStats stats;            ///< single-writer fields, read post-join
    std::thread thread;
  };
  std::vector<std::unique_ptr<Shard>> shards;

  // Merge products. marked_store is a deque so the Event addresses
  // handed to the extractor stay stable as it grows. `stored` dedups
  // the store across overlapping windows; `seen` holds ids relayed by a
  // healthy mark, `quarantined_ids` ids relayed through a quarantined
  // or degraded window (an id can be in both — accounting attributes it
  // to `seen`).
  std::vector<EventId> marked_ids;
  std::unordered_set<EventId> seen;
  std::unordered_set<EventId> quarantined_ids;
  std::unordered_set<EventId> stored;
  std::deque<Event> marked_store;

  OverloadController controller;
  HealthGuard guard;
  size_t degraded_since_probe = 0;
  std::unique_ptr<DriftMonitor> drift;
  double latency_ewma = 0.0;
  bool latency_seen = false;
  size_t latency_samples = 0;  ///< observations offered (incl. discarded)

  // Checkpoint bookkeeping (router thread).
  uint64_t base_ingested = 0;  ///< events already accounted pre-restore
  uint64_t last_checkpoint = 0;

  std::atomic<bool> source_aborted{false};

  RuntimeStats stats;
  Stopwatch watch;
};

Status OnlineDlacep::ValidateForOnline(const Pattern& pattern) {
  if (pattern.window().kind != WindowKind::kCount) {
    return Status::InvalidArgument(
        "DLACEP filtering requires a count window (WITHIN N EVENTS); "
        "run time-window queries on the exact engines with `dlacep run`");
  }
  return Status::Ok();
}

OnlineDlacep::OnlineDlacep(const Pattern& pattern, const StreamFilter* filter,
                           const OnlineConfig& config)
    : pattern_(pattern),
      config_(config),
      filter_(filter),
      type_shed_(pattern_),
      random_shed_(config.overload.random_keep_probability,
                   config.overload.random_seed),
      extractor_(pattern_, config.engine, config.engine_options) {
  DLACEP_CHECK(filter_ != nullptr);
  DLACEP_CHECK_MSG(ValidateForOnline(pattern_).ok(),
                   ValidateForOnline(pattern_).message());
  const size_t w = pattern_.window().count_size();
  mark_size_ = config_.mark_size != 0 ? config_.mark_size : 2 * w;
  step_size_ = config_.step_size != 0 ? config_.step_size : w;
  DLACEP_CHECK_GT(mark_size_, 0u);
  DLACEP_CHECK_GT(step_size_, 0u);
  num_shards_ = config_.num_shards;
  // One scratch arena per shard, reused across runs. num_shards_ == 0
  // builds none; Run() rejects it.
  for (size_t i = 0; i < num_shards_; ++i) {
    contexts_.push_back(std::make_unique<InferenceContext>());
  }
  max_in_flight_ = config_.max_windows_in_flight != 0
                       ? config_.max_windows_in_flight
                       : 2 * num_shards_ + 2;
}

void OnlineDlacep::MergeOne(RunState* state, DoneWindow window) {
  obs::TraceSpan merge_span(obs::StageWindowMerge());
  const double now = state->watch.ElapsedSeconds();
  const double latency = std::max(0.0, now - window.close_seconds);
  state->stats.window_latency.Record(latency);
  // The first latency_warmup_windows observations never reach the EWMA:
  // the warm-up window is routinely a cold-cache outlier, and because
  // the EWMA seeds from its first observation, admitting it would hold
  // the smoothed latency above the escalation bar for several windows —
  // a spurious escalation from one slow window (overload.h).
  if (state->latency_samples++ >= config_.overload.latency_warmup_windows) {
    state->latency_ewma = state->latency_seen
                              ? 0.8 * state->latency_ewma + 0.2 * latency
                              : latency;
    state->latency_seen = true;
  }

  ++state->stats.windows_closed;
  obs::WindowsClosed()->Increment();
  if (window.level == 1) {
    ++state->stats.windows_boosted;
    obs::WindowsBoosted()->Increment();
  }
  if (window.level >= OverloadController::kMaxLevel &&
      window.level != OverloadController::kDegradedLevel) {
    ++state->stats.windows_shed;
    obs::WindowsShed()->Increment();
  }

  const size_t window_size = window.events->size();
  const bool degraded_window =
      window.level == OverloadController::kDegradedLevel;
  bool quarantine = false;

  if (degraded_window) {
    ++state->stats.windows_degraded;
    obs::WindowsDegraded()->Increment();
    if (window.probe) {
      ++state->stats.probes_run;
      obs::ProbesRun()->Increment();
      bool recovered = false;
      const bool passed = state->guard.ProbeHealthy(
          window.shadow_marks, window_size, latency, &recovered);
      if (passed) {
        ++state->stats.probes_passed;
        obs::ProbesPassed()->Increment();
      }
      if (recovered) {
        state->controller.ExitDegraded();
        ++state->stats.health_recoveries;
        obs::HealthRecoveries()->Increment();
        obs::HealthDegraded()->Set(0.0);
        state->guard.ResetStreaks();
        state->degraded_since_probe = 0;
        DLACEP_LOG(Info) << "filter re-enabled after "
                         << state->guard.config().probe_passes
                         << " healthy probes";
      }
    }
  } else if (config_.health.enabled) {
    HealthViolation v =
        window.timed_out
            ? HealthViolation::kDeadline
            : state->guard.Inspect(window.marks, window_size, latency);
    if (v != HealthViolation::kNone) {
      quarantine = true;
      ++state->stats.health_violations;
      obs::HealthViolations()->Increment();
      ++state->stats.windows_quarantined;
      obs::WindowsQuarantined()->Increment();
      DLACEP_LOG(Warning)
          << "window at " << window.begin << " quarantined ("
          << HealthViolationName(v) << "); degrading to exact CEP";
      if (!state->controller.degraded()) {
        state->controller.ForceDegrade(
            static_cast<double>(state->queue.size()) /
                static_cast<double>(state->queue.capacity()),
            latency);
        ++state->stats.health_degrades;
        obs::HealthDegrades()->Increment();
        obs::HealthDegraded()->Set(1.0);
      }
      state->guard.ResetStreaks();
      state->degraded_since_probe = 0;
    }
  } else {
    // Health checks off: the PR-3 invariant — a filter must cover its
    // window — is a programmer error again.
    DLACEP_CHECK_EQ(window.marks.size(), window.events->size());
  }

  if (degraded_window || quarantine) {
    // Relay the whole window unfiltered: recall 1.0 by construction.
    for (size_t t = 0; t < window_size; ++t) {
      const Event& event = (*window.events)[t];
      state->marked_ids.push_back(event.id);
      state->quarantined_ids.insert(event.id);
      if (state->stored.insert(event.id).second) {
        state->marked_store.push_back(event);
      }
    }
  } else {
    for (size_t t = 0; t < window.marks.size(); ++t) {
      if (window.marks[t] == 0) continue;
      const Event& event = (*window.events)[t];
      state->marked_ids.push_back(event.id);
      if (state->seen.insert(event.id).second) {
        obs::EventsRelayed()->Increment();
      }
      if (state->stored.insert(event.id).second) {
        state->marked_store.push_back(event);
      }
    }
    if (state->drift != nullptr && state->drift->Observe(window.marks)) {
      ++state->stats.drift_flags;
      // Flag-only policy: re-anchor to the live rate so the monitor
      // re-arms instead of firing on every subsequent window (the
      // retraining loop in drift.h is the heavyweight alternative).
      state->drift->ResetReference();
    }
  }
}

void OnlineDlacep::DrainMerges(RunState* state, size_t target_in_flight) {
  const double deadline =
      config_.health.enabled ? config_.health.mark_deadline_seconds : 0.0;
  // The merge line is the global dispatch sequence, and sequence `seq`
  // was dispatched to shard `seq % num_shards_`. Anything popped below
  // the line is the late result of a previously abandoned window —
  // stale, discard.
  while (state->in_flight > target_in_flight) {
    auto pit = state->pending.find(state->next_merge);
    DLACEP_CHECK(pit != state->pending.end());
    RunState::Shard& shard = *state->shards[state->next_merge % num_shards_];
    DoneWindow window;
    bool have = false;
    for (;;) {
      RunState::SeqDone done;
      if (deadline <= 0.0) {
        if (!shard.done.Pop(&done)) break;  // ring closed (shutdown)
      } else {
        const double wait_s = pit->second.close_seconds + deadline -
                              state->watch.ElapsedSeconds();
        if (wait_s <= 0.0) break;  // overdue: abandon below
        bool timed_out = false;
        if (!shard.done.PopFor(&done, wait_s, &timed_out)) {
          if (timed_out) continue;  // recomputes wait_s, then abandons
          break;                    // ring closed (shutdown)
        }
      }
      if (done.seq < state->next_merge) continue;  // stale late result
      // A shard's completions are sequence-increasing and every lower
      // sequence it owns has already merged or been discarded, so the
      // first live completion is exactly the merge line.
      DLACEP_CHECK_EQ(done.seq, state->next_merge);
      window = std::move(done.window);
      have = true;
      break;
    }
    if (!have) {
      // Deadline abandon: the shard is wedged (or just too slow).
      // Synthesize a quarantined stand-in from the router's shadow;
      // MergeOne relays its events unfiltered and degrades.
      const RunState::Pending& p = pit->second;
      window.begin = p.begin;
      window.level = p.level;
      window.close_seconds = p.close_seconds;
      window.events = p.events;
      window.timed_out = true;
    }
    state->pending.erase(pit);
    ++state->next_merge;
    --state->in_flight;
    MergeOne(state, std::move(window));
  }
  // Opportunistically retire whatever the owner shard of the merge line
  // has already finished, so merge latency tracks worker completion.
  while (state->in_flight > 0) {
    auto pit = state->pending.find(state->next_merge);
    DLACEP_CHECK(pit != state->pending.end());
    RunState::Shard& shard = *state->shards[state->next_merge % num_shards_];
    DoneWindow window;
    bool have = false;
    RunState::SeqDone done;
    while (shard.done.TryPop(&done)) {
      if (done.seq < state->next_merge) continue;  // stale late result
      DLACEP_CHECK_EQ(done.seq, state->next_merge);
      window = std::move(done.window);
      have = true;
      break;
    }
    if (!have) break;
    state->pending.erase(pit);
    ++state->next_merge;
    --state->in_flight;
    MergeOne(state, std::move(window));
  }
}

void OnlineDlacep::ShardLoop(RunState* state, size_t shard_index) {
  RunState::Shard& shard = *state->shards[shard_index];
  if (config_.pin_shard_threads) {
    const size_t cores = ResolveNumThreads(0);
    shard.stats.pinned = PinCurrentThreadToCore(shard_index % cores);
  }
  InferenceContext* ctx = contexts_[shard_index].get();
  const size_t batch_cap = config_.batch_size > 1 ? config_.batch_size : 1;
  std::vector<RunState::WindowTask> burst;
  std::vector<RunState::SeqDone> finished;
  for (;;) {
    burst.clear();
    if (shard.work.PopBurst(&burst, kShardWorkBurst) == 0) break;
    finished.clear();
    finished.reserve(burst.size());
    size_t i = 0;
    while (i < burst.size()) {
      // Micro-batching: adjacent level-0/1 windows in the burst mark
      // through one MarkBatchOnline call (the network filter applies
      // the boost per window) — a busy shard's backlog batches
      // naturally, an idle shard marks solo with no added latency.
      // Shed, degraded, and probe windows always mark solo: their
      // marking is trivial or intentionally separate, so a degraded run
      // behaves exactly like batch_size = 1.
      const RunState::WindowTask& head = burst[i];
      const bool batchable = batch_cap > 1 &&
                             head.level < OverloadController::kMaxLevel &&
                             !head.probe;
      size_t j = i + 1;
      if (batchable) {
        while (j < burst.size() && j - i < batch_cap &&
               burst[j].level < OverloadController::kMaxLevel &&
               !burst[j].probe) {
          ++j;
        }
      }
      Stopwatch mark_watch;
      obs::TraceSpan mark_span(obs::StageWindowMark());
      if (batchable && j - i > 1) {
        std::vector<OnlineWindow> windows;
        windows.reserve(j - i);
        for (size_t k = i; k < j; ++k) {
          const RunState::WindowTask& t = burst[k];
          if (config_.worker_window_hook) config_.worker_window_hook(t.seq);
          windows.push_back(OnlineWindow{
              t.events.get(), t.begin,
              t.level == 1 ? config_.overload.threshold_boost : 0.0});
        }
        std::vector<std::vector<int>> marks(j - i);
        filter_->MarkBatchOnline(windows, ctx, marks.data());
        for (size_t k = i; k < j; ++k) {
          RunState::WindowTask& t = burst[k];
          DoneWindow window;
          window.begin = t.begin;
          window.level = t.level;
          window.close_seconds = t.close_seconds;
          window.events = std::move(t.events);
          window.marks = std::move(marks[k - i]);
          finished.push_back(RunState::SeqDone{t.seq, std::move(window)});
        }
      } else {
        RunState::WindowTask& t = burst[i];
        if (config_.worker_window_hook) config_.worker_window_hook(t.seq);
        DoneWindow window;
        window.begin = t.begin;
        window.level = t.level;
        window.close_seconds = t.close_seconds;
        window.events = t.events;
        window.probe = t.probe;
        if (t.level == OverloadController::kDegradedLevel) {
          // Degrade-to-exact: relay everything; the exact CEP engine
          // sees the unfiltered window (recall 1.0). A probe window
          // additionally exercises the distrusted filter, output
          // inspected only.
          window.marks.assign(t.events->size(), 1);
          if (t.probe) {
            window.shadow_marks =
                filter_->MarkOnline(*t.events, t.begin, ctx, 0.0);
          }
        } else if (t.level >= OverloadController::kMaxLevel) {
          const StreamFilter& shed =
              config_.overload.shedding == SheddingPolicy::kRandom
                  ? static_cast<const StreamFilter&>(random_shed_)
                  : static_cast<const StreamFilter&>(type_shed_);
          window.marks = shed.MarkOnline(*t.events, t.begin, ctx, 0.0);
        } else {
          const double boost =
              t.level == 1 ? config_.overload.threshold_boost : 0.0;
          window.marks = filter_->MarkOnline(*t.events, t.begin, ctx, boost);
        }
        finished.push_back(RunState::SeqDone{t.seq, std::move(window)});
      }
      mark_span.Finish();
      shard.stats.mark_seconds += mark_watch.ElapsedSeconds();
      shard.stats.windows_marked += j - i;
      ++shard.stats.filter_calls;
      obs::ShardWindowsMarked(shard_index)->Increment(j - i);
      obs::ShardMarkLatency(shard_index)
          ->Observe(mark_watch.ElapsedSeconds());
      i = j;
    }
    shard.done.PushBurst(finished.data(), finished.size());
  }
}

void OnlineDlacep::CloseWindow(RunState* state, size_t begin, size_t end) {
  DrainMerges(state, max_in_flight_ - 1);

  // The overload decision is taken at close time, on the router thread,
  // from the current ingest-queue depth and the smoothed merge latency
  // — so the level a window runs under is deterministic given the
  // arrival/processing interleaving, and level changes are totally
  // ordered with window dispatch. While degraded, Observe() returns
  // kDegradedLevel unconditionally.
  const int level = state->controller.Observe(
      static_cast<double>(state->queue.size()) /
          static_cast<double>(state->queue.capacity()),
      state->latency_seen ? state->latency_ewma : 0.0);
  obs::QueueDepth()->Set(static_cast<double>(state->queue.size()));
  obs::OverloadLevel()->Set(static_cast<double>(level));

  // Probe scheduling is router-side (deterministic regardless of shard
  // count): every probe_period-th degraded window additionally
  // shadow-marks with the primary filter.
  bool probe = false;
  if (level == OverloadController::kDegradedLevel &&
      config_.health.enabled && config_.health.probe_period > 0) {
    if (++state->degraded_since_probe >= config_.health.probe_period) {
      probe = true;
      state->degraded_since_probe = 0;
    }
  }

  // Detach the window into its own EventStream (ids preserved): workers
  // must never read the router's growing buffer, and the copy is what
  // lets the buffer prune below.
  auto events = std::make_shared<EventStream>(state->schema);
  for (size_t i = begin; i < end; ++i) {
    events->AppendArrival(state->buffer[i - state->buffer_offset]);
  }

  // Adaptive engine selection (config.engine == kAdaptive): the router
  // feeds each closed window into the selector's frequency estimator
  // right here — before dispatch, on the one thread that closes windows
  // — so the observation order, the decayed counts, and every
  // reselection point are deterministic at any shard count. No-op for
  // static engines.
  extractor_.ObserveWindow(
      std::span<const Event>(events->events().data(), events->size()));

  const size_t seq = state->windows_dispatched++;
  state->last_end = end;
  state->next_begin = begin + step_size_;
  while (state->buffer_offset < state->next_begin && !state->buffer.empty()) {
    state->buffer.pop_front();
    ++state->buffer_offset;
  }

  const double close_seconds = state->watch.ElapsedSeconds();
  ++state->in_flight;
  obs::WindowsInFlight()->Set(static_cast<double>(state->in_flight));

  // Exchange stage: the detached window is forwarded whole to shard
  // seq mod N. Windows are fixed-size, so round-robin gives every shard
  // an equal share of the marking, and the owner is a pure function of
  // the dispatch sequence (a restored run resumes at its
  // windows_dispatched). Occupancy is bounded by in_flight (capped at
  // max_in_flight_ - 1 by the DrainMerges above), so the push lands
  // without blocking unless deadline abandons have piled extra tasks
  // onto a wedged shard — then blocking here is the intended
  // backpressure.
  const size_t owner = seq % num_shards_;
  state->pending.emplace(
      seq, RunState::Pending{begin, level, close_seconds, events});
  RunState::Shard& shard = *state->shards[owner];
  RunState::WindowTask task{seq,   begin, level,
                            probe, close_seconds, std::move(events)};
  const bool accepted = shard.work.Push(std::move(task));
  DLACEP_CHECK(accepted);
  ++shard.stats.windows_routed;
  obs::ShardRingDepth(owner)->Set(static_cast<double>(shard.work.size()));
}

void OnlineDlacep::WriteCheckpointNow(RunState* state) {
  // Quiesce: a checkpoint is only consistent once every dispatched
  // window has merged (the snapshot has no notion of in-flight work).
  DrainMerges(state, 0);

  obs::TraceSpan checkpoint_span(obs::StageCheckpointWrite());
  CheckpointState snap;
  snap.mark_size = mark_size_;
  snap.step_size = step_size_;
  snap.appended = state->appended;
  snap.next_begin = state->next_begin;
  snap.windows_dispatched = state->windows_dispatched;
  snap.last_end = state->last_end;
  snap.buffer_offset = state->buffer_offset;
  snap.buffer.assign(state->buffer.begin(), state->buffer.end());
  snap.marked_ids = state->marked_ids;
  snap.marked_events.assign(state->marked_store.begin(),
                            state->marked_store.end());
  snap.seen.assign(state->seen.begin(), state->seen.end());
  std::sort(snap.seen.begin(), snap.seen.end());
  snap.quarantined.assign(state->quarantined_ids.begin(),
                          state->quarantined_ids.end());
  std::sort(snap.quarantined.begin(), snap.quarantined.end());
  snap.events_dropped_queue = state->stats.events_dropped_queue;
  snap.windows_closed = state->stats.windows_closed;
  snap.windows_boosted = state->stats.windows_boosted;
  snap.windows_shed = state->stats.windows_shed;
  snap.windows_quarantined = state->stats.windows_quarantined;
  snap.windows_degraded = state->stats.windows_degraded;
  snap.health_violations = state->stats.health_violations;
  snap.health_degrades = state->stats.health_degrades;
  snap.health_recoveries = state->stats.health_recoveries;
  snap.probes_run = state->stats.probes_run;
  snap.probes_passed = state->stats.probes_passed;
  snap.checkpoints_written = state->stats.checkpoints_written + 1;
  snap.drift_flags = state->stats.drift_flags;
  snap.controller_level = state->controller.level();
  snap.probe_pass_run = state->guard.probe_pass_run();
  snap.degraded_since_probe = state->degraded_since_probe;
  if (const AdaptiveEngine* adaptive = extractor_.adaptive()) {
    const AdaptiveSnapshot a = adaptive->Snapshot();
    snap.has_adaptive = 1;
    snap.adaptive_selected = a.selected;
    snap.adaptive_windows_observed = a.windows_observed;
    snap.adaptive_switches = a.switches;
    snap.adaptive_external_feed = a.external_feed;
    snap.adaptive_freq_types.reserve(a.frequencies.size());
    snap.adaptive_freq_counts.reserve(a.frequencies.size());
    for (const auto& [type, count] : a.frequencies) {
      snap.adaptive_freq_types.push_back(type);
      snap.adaptive_freq_counts.push_back(count);
    }
  }

  const Status status = SaveCheckpoint(snap, config_.checkpoint.dir);
  if (status.ok()) {
    ++state->stats.checkpoints_written;
    obs::CheckpointsWritten()->Increment();
  } else {
    // A failed checkpoint degrades durability, not availability.
    DLACEP_LOG(Warning) << "checkpoint write failed: " << status.ToString();
  }
}

Status OnlineDlacep::RestoreFrom(RunState* state, StreamSource* source) {
  if (config_.drop_when_full) {
    return Status::FailedPrecondition(
        "checkpoint restore requires lossless ingest "
        "(drop_when_full = false): with drops the arrival-id counter "
        "no longer tracks the source position");
  }
  StatusOr<CheckpointState> loaded = LoadCheckpoint(config_.checkpoint.dir);
  if (!loaded.ok()) return loaded.status();
  CheckpointState& cs = *loaded;
  if (cs.mark_size != mark_size_ || cs.step_size != step_size_) {
    return Status::FailedPrecondition(
        "checkpoint window geometry does not match this runtime");
  }
  if (cs.buffer.size() != cs.appended - cs.buffer_offset) {
    return Status::InvalidArgument(
        "checkpoint buffer does not cover [buffer_offset, appended)");
  }
  // Engine-selection state must round-trip exactly: an adaptive resume
  // needs the frequency counts and observation counter to land on the
  // same reselection points, and a static resume must not silently
  // discard a selection trail the checkpoint carries.
  AdaptiveEngine* adaptive = extractor_.adaptive();
  if (cs.has_adaptive != 0) {
    if (adaptive == nullptr) {
      return Status::FailedPrecondition(
          "checkpoint carries adaptive engine-selection state but this "
          "runtime is configured with a static engine");
    }
    AdaptiveSnapshot a;
    a.selected = cs.adaptive_selected;
    a.windows_observed = cs.adaptive_windows_observed;
    a.switches = cs.adaptive_switches;
    a.external_feed = cs.adaptive_external_feed;
    a.frequencies.reserve(cs.adaptive_freq_types.size());
    for (size_t i = 0; i < cs.adaptive_freq_types.size(); ++i) {
      a.frequencies.emplace_back(cs.adaptive_freq_types[i],
                                 cs.adaptive_freq_counts[i]);
    }
    const Status restored = adaptive->Restore(a);
    if (!restored.ok()) return restored;
  } else if (adaptive != nullptr) {
    return Status::FailedPrecondition(
        "adaptive engine selection configured but the checkpoint has no "
        "selection state (taken by a static-engine or pre-v2 run)");
  }

  state->appended = cs.appended;
  state->next_begin = cs.next_begin;
  state->windows_dispatched = cs.windows_dispatched;
  state->next_merge = cs.windows_dispatched;  // quiescent at snapshot
  state->last_end = cs.last_end;
  state->buffer_offset = cs.buffer_offset;
  state->buffer.assign(cs.buffer.begin(), cs.buffer.end());
  state->marked_ids = std::move(cs.marked_ids);
  for (Event& e : cs.marked_events) {
    state->stored.insert(e.id);
    state->marked_store.push_back(std::move(e));
  }
  state->seen.insert(cs.seen.begin(), cs.seen.end());
  state->quarantined_ids.insert(cs.quarantined.begin(),
                                cs.quarantined.end());

  state->stats.events_dropped_queue = cs.events_dropped_queue;
  state->stats.windows_closed = cs.windows_closed;
  state->stats.windows_boosted = cs.windows_boosted;
  state->stats.windows_shed = cs.windows_shed;
  state->stats.windows_quarantined = cs.windows_quarantined;
  state->stats.windows_degraded = cs.windows_degraded;
  state->stats.health_violations = cs.health_violations;
  state->stats.health_degrades = cs.health_degrades;
  state->stats.health_recoveries = cs.health_recoveries;
  state->stats.probes_run = cs.probes_run;
  state->stats.probes_passed = cs.probes_passed;
  state->stats.checkpoints_written = cs.checkpoints_written;
  state->stats.drift_flags = cs.drift_flags;

  // Fold the restored baselines into the metric counters so a scrape
  // equals RuntimeStats whether or not the run resumed from a
  // checkpoint (relayed increments live on seen-insert; the restored
  // seen set never re-inserts, so its baseline lands here).
  obs::EventsIngested()->Increment(cs.appended);
  obs::EventsDropped()->Increment(cs.events_dropped_queue);
  obs::EventsRelayed()->Increment(cs.seen.size());
  obs::WindowsClosed()->Increment(cs.windows_closed);
  obs::WindowsBoosted()->Increment(cs.windows_boosted);
  obs::WindowsShed()->Increment(cs.windows_shed);
  obs::WindowsQuarantined()->Increment(cs.windows_quarantined);
  obs::WindowsDegraded()->Increment(cs.windows_degraded);
  obs::HealthViolations()->Increment(cs.health_violations);
  obs::HealthDegrades()->Increment(cs.health_degrades);
  obs::HealthRecoveries()->Increment(cs.health_recoveries);
  obs::ProbesRun()->Increment(cs.probes_run);
  obs::ProbesPassed()->Increment(cs.probes_passed);
  obs::CheckpointsWritten()->Increment(cs.checkpoints_written);

  state->controller.RestoreLevel(cs.controller_level);
  obs::OverloadLevel()->Set(static_cast<double>(cs.controller_level));
  obs::HealthDegraded()->Set(
      cs.controller_level == OverloadController::kDegradedLevel ? 1.0 : 0.0);
  state->guard.RestoreProbeRun(cs.probe_pass_run);
  state->degraded_since_probe = cs.degraded_since_probe;

  state->base_ingested = cs.appended;
  state->last_checkpoint = cs.appended;

  const size_t skipped = source->Skip(cs.appended);
  if (skipped != cs.appended) {
    return Status::FailedPrecondition(
        "source ended before the checkpoint watermark — restore needs "
        "the same deterministic stream the checkpoint was taken from");
  }
  DLACEP_LOG(Info) << "restored checkpoint at watermark " << cs.appended
                   << " (" << state->marked_store.size()
                   << " relayed events)";
  return Status::Ok();
}

OnlineResult OnlineDlacep::Run(StreamSource* source) {
  OnlineResult result;
  const Status status = Run(source, &result);
  DLACEP_CHECK_MSG(status.ok(), status.ToString());
  return result;
}

Status OnlineDlacep::Run(StreamSource* source, OnlineResult* result) {
  DLACEP_CHECK(source != nullptr);
  DLACEP_CHECK(result != nullptr);
  if (num_shards_ == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  if (config_.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be at least 1");
  }
  RunState state(config_.queue_capacity, config_.overload, config_.health);
  state.schema = source->schema();
  if (config_.drift.enabled) {
    state.drift = std::make_unique<DriftMonitor>(
        config_.drift.reference_rate, config_.drift.tolerance,
        config_.drift.window_budget);
  }
  const bool checkpointing = !config_.checkpoint.dir.empty();
  if (config_.checkpoint.restore) {
    if (!checkpointing) {
      return Status::InvalidArgument("--restore needs a checkpoint dir");
    }
    DLACEP_RETURN_IF_ERROR(RestoreFrom(&state, source));
  }

  // Spawn the shard workers before any window can close. Without
  // deadline abandons, ring occupancy is bounded by
  // in_flight <= max_in_flight_, so pushes never block. Abandoned
  // windows leave in_flight while their task/late-result still occupies
  // a ring, so capacity carries 2x slack; if a ring still fills behind
  // a wedged shard, the push blocking IS the backpressure (the merge
  // line keeps advancing via abandons and drains the ring on its next
  // visit).
  const size_t ring_capacity = 2 * (max_in_flight_ + 1);
  for (size_t s = 0; s < num_shards_; ++s) {
    state.shards.push_back(
        std::make_unique<RunState::Shard>(ring_capacity, ring_capacity));
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    state.shards[s]->thread =
        std::thread(&OnlineDlacep::ShardLoop, this, &state, s);
  }

  // Producer: pull, stamp the arrival id BEFORE the queue (a dropped
  // event leaves an id gap, keeping the count-window constraint
  // anchored to real arrivals, §4.4), push. Transient read failures
  // retry with exponential backoff; a persistent failure closes the
  // queue and flags the abort — the serve loop never crashes on a bad
  // source. Counters are thread-local and folded into stats after
  // join().
  uint64_t ingested = 0;
  uint64_t dropped = 0;
  uint64_t read_errors = 0;
  uint64_t retries = 0;
  obs::QueueCapacity()->Set(static_cast<double>(state.queue.capacity()));
  std::thread producer([&] {
    RunState::Arrival arrival;
    EventId next_id = state.appended;  // restored runs resume the id line
    int consecutive_failures = 0;
    for (;;) {
      const Status read = source->Read(&arrival.event);
      if (read.ok()) {
        consecutive_failures = 0;
        arrival.event.id = next_id++;
        ++ingested;
        obs::EventsIngested()->Increment();
        arrival.pushed_seconds =
            obs::MetricsEnabled() ? state.watch.ElapsedSeconds() : 0.0;
        const bool accepted = config_.drop_when_full
                                  ? state.queue.TryPush(arrival)
                                  : state.queue.Push(arrival);
        if (!accepted) {
          ++dropped;
          obs::EventsDropped()->Increment();
        }
        continue;
      }
      if (read.code() == StatusCode::kOutOfRange) break;  // clean end
      ++read_errors;
      if (read.code() == StatusCode::kUnavailable &&
          consecutive_failures < kMaxSourceRetries) {
        ++retries;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            kSourceBackoffBaseSeconds *
            static_cast<double>(1 << consecutive_failures)));
        ++consecutive_failures;
        continue;
      }
      DLACEP_LOG(Error) << "stream source failed permanently: "
                        << read.ToString();
      state.source_aborted.store(true, std::memory_order_release);
      break;
    }
    state.queue.Close();
  });

  // Router loop: a full window closes by watermark the moment its last
  // event arrives — the running prefix of CountWindows(appended, mark,
  // step). Arrivals are burst-popped so the ingest queue's lock and
  // wakeup cost amortize across kRouterIngestBurst events.
  std::vector<RunState::Arrival> arrivals;
  arrivals.reserve(kRouterIngestBurst);
  for (;;) {
    arrivals.clear();
    if (state.queue.PopBurst(&arrivals, kRouterIngestBurst) == 0) break;
    for (RunState::Arrival& arrival : arrivals) {
      if (arrival.pushed_seconds > 0.0) {
        obs::StageQueueWait()->Observe(std::max(
            0.0, state.watch.ElapsedSeconds() - arrival.pushed_seconds));
      }
      state.buffer.push_back(std::move(arrival.event));
      ++state.appended;
      while (state.appended >= state.next_begin + mark_size_) {
        CloseWindow(&state, state.next_begin,
                    state.next_begin + mark_size_);
      }
      if (checkpointing && config_.checkpoint.every_events > 0 &&
          state.appended - state.last_checkpoint >=
              config_.checkpoint.every_events) {
        WriteCheckpointNow(&state);
        state.last_checkpoint = state.appended;
      }
    }
  }

  // End of stream: emit the truncated suffix exactly as CountWindows
  // would — at least one window on a nonempty stream, and windows until
  // one ends at the final event. After a source abort the suffix is NOT
  // fabricated: those windows would differ from the ones an
  // uninterrupted run eventually closes, which would poison a later
  // restore. The buffered tail stays in the checkpoint instead.
  const bool aborted = state.source_aborted.load(std::memory_order_acquire);
  const size_t total = state.appended;
  if (total > 0 && !aborted) {
    while (state.windows_dispatched == 0 || state.last_end != total) {
      CloseWindow(&state, state.next_begin,
                  std::min(state.next_begin + mark_size_, total));
    }
  }
  DrainMerges(&state, 0);
  // All windows are merged; close the work rings (the workers exit once
  // drained) and join, so no worker can touch RunState after Run
  // returns.
  for (auto& shard : state.shards) shard->work.Close();
  for (auto& shard : state.shards) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  producer.join();

  // Final checkpoint at full quiescence (also the abort-path snapshot a
  // --restore run resumes from).
  if (checkpointing) WriteCheckpointNow(&state);

  state.stats.events_ingested = state.base_ingested + ingested;
  state.stats.events_dropped_queue += dropped;
  state.stats.events_appended = state.appended;
  state.stats.events_relayed = state.seen.size();
  uint64_t quarantined_only = 0;
  for (const EventId id : state.quarantined_ids) {
    if (state.seen.find(id) == state.seen.end()) ++quarantined_only;
  }
  state.stats.events_quarantined = quarantined_only;
  state.stats.events_filtered = state.appended - state.stored.size();
  // Filtered and quarantined-only are set-complement quantities: they
  // exist only once the run is over (a filtered event might still be
  // marked by a later overlapping window), so they sync to counters
  // here rather than incrementing live.
  obs::EventsQuarantined()->Increment(state.stats.events_quarantined);
  obs::EventsFiltered()->Increment(state.stats.events_filtered);
  state.stats.queue_capacity = state.queue.capacity();
  state.stats.queue_high_water = state.queue.high_water();
  for (auto& shard : state.shards) {
    shard->stats.work_high_water = shard->work.high_water();
    state.stats.shards.push_back(shard->stats);
  }
  state.stats.overload_escalations = state.controller.escalations();
  state.stats.overload_recoveries = state.controller.recoveries();
  state.stats.overload_level_at_exit = state.controller.level();
  state.stats.transitions = state.controller.transitions();
  state.stats.source_read_errors = read_errors;
  state.stats.source_retries = retries;
  state.stats.source_aborted = aborted;

  if (config_.collect_relayed) {
    result->relayed_events.assign(state.marked_store.begin(),
                                  state.marked_store.end());
    result->quarantined_ids.assign(state.quarantined_ids.begin(),
                                   state.quarantined_ids.end());
    std::sort(result->quarantined_ids.begin(),
              result->quarantined_ids.end());
  }
  if (!config_.skip_extraction) {
    extractor_.ResetStats();
    Stopwatch extract_watch;
    std::vector<const Event*> marked;
    marked.reserve(state.marked_store.size());
    for (const Event& e : state.marked_store) marked.push_back(&e);
    const Status status =
        extractor_.Extract(std::move(marked), &result->matches);
    DLACEP_CHECK_MSG(status.ok(), status.ToString());
    state.stats.extract_seconds = extract_watch.ElapsedSeconds();
    obs::StageCepEval()->Observe(state.stats.extract_seconds);
    // Selection lives in the adaptive engine, not EngineStats, so it
    // survives the ResetStats() above; read it after the final Evaluate
    // in case a windowless run selected on the extraction span itself.
    const AdaptiveEngine* adaptive = extractor_.adaptive();
    state.stats.engine_selected =
        adaptive != nullptr ? EngineKindName(adaptive->selected_kind())
                            : EngineKindName(config_.engine);
    state.stats.engine_switches =
        adaptive != nullptr ? adaptive->switches() : 0;
  }
  state.stats.matches = result->matches.size();
  state.stats.elapsed_seconds = state.watch.ElapsedSeconds();

  result->marked_ids = std::move(state.marked_ids);
  result->stats = std::move(state.stats);
  result->marked_events = result->stats.events_relayed;
  return Status::Ok();
}

}  // namespace dlacep
