#include "serve/server.h"

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cep/engine.h"
#include "common/timer.h"
#include "dlacep/extractor.h"
#include "obs/stages.h"

namespace dlacep {
namespace serve {

size_t MultiQueryResult::total_matches() const {
  size_t total = 0;
  for (const QueryResult& query : queries) total += query.matches.size();
  return total;
}

double MultiQueryResult::events_per_sec() const {
  const double seconds = stats.elapsed_seconds + stats.extract_seconds;
  return seconds > 0.0
             ? static_cast<double>(stats.events_appended) / seconds
             : 0.0;
}

MultiQueryServer::MultiQueryServer(QueryRegistry* registry,
                                   const StreamFilter* base,
                                   const EventNetworkFilter* heads,
                                   const ServeConfig& config)
    : registry_(registry), config_(config), filter_(registry, base, heads) {}

Status MultiQueryServer::Run(StreamSource* source, MultiQueryResult* result) {
  *result = MultiQueryResult{};
  const auto start_snapshot = registry_->Acquire();
  if (start_snapshot->queries.empty()) {
    return Status::FailedPrecondition(
        "cannot serve: no queries registered");
  }

  OnlineConfig online = config_.online;
  if (online.mark_size == 0) online.mark_size = 2 * start_snapshot->max_window;
  if (online.step_size == 0) online.step_size = start_snapshot->max_window;
  online.collect_relayed = true;
  online.skip_extraction = true;

  filter_.ResetRecording();
  // Any registered pattern works as the runtime's geometry anchor (the
  // assembler uses the explicit mark/step above; the built-in extractor
  // is skipped).
  OnlineDlacep runtime(*start_snapshot->queries[0].pattern, &filter_,
                       online);
  OnlineResult raw;
  Status run_status = runtime.Run(source, &raw);
  if (!run_status.ok()) return run_status;

  // Extraction serves whatever is registered when the stream ends.
  const auto end_snapshot = registry_->Acquire();
  Stopwatch extract_watch;
  Status extract_status = ExtractShared(*end_snapshot, raw, result);
  if (!extract_status.ok()) return extract_status;
  raw.stats.extract_seconds = extract_watch.ElapsedSeconds();
  obs::StageCepEval()->Observe(raw.stats.extract_seconds);
  raw.stats.matches = result->total_matches();
  result->stats = std::move(raw.stats);

  for (const QueryResult& query : result->queries) {
    obs::QueryMatches(query.name)->Increment(query.matches.size());
    obs::QueryMarkedEvents(query.name)->Increment(query.marked_events);
    obs::QueryBudgetAborts(query.name)->Increment(query.budget_aborts);
    obs::QueryBreakerTrips(query.name)->Increment(query.breaker_trips);
    obs::QueryBreakerState(query.name)
        ->Set(static_cast<double>(query.breaker_state));
    obs::QueryExtractCost(query.name)
        ->Set(static_cast<double>(query.extract_cost));
  }
  obs::ServeEnginesRun()->Increment(result->sharing.engines_run);
  obs::ServeEnginesShared()->Increment(result->sharing.engines_shared);
  obs::ServeEnginesGuardPruned()->Increment(result->sharing.guard_pruned);
  obs::ServeEnginesTypePruned()->Increment(result->sharing.type_pruned);
  obs::ServeChunksRun()->Increment(result->sharing.chunks_run);
  obs::ServeChunksSkipped()->Increment(result->sharing.chunks_skipped);
  obs::ServeChunksAborted()->Increment(result->sharing.budget_aborts);
  return Status::Ok();
}

Status MultiQueryServer::ExtractShared(const RegistrySnapshot& snapshot,
                                       const OnlineResult& raw,
                                       MultiQueryResult* result) {
  const std::map<QueryId, std::vector<EventId>> recorded =
      filter_.RecordedMarks();

  std::unordered_map<EventId, const Event*> by_id;
  by_id.reserve(raw.relayed_events.size());
  for (const Event& event : raw.relayed_events) {
    by_id.emplace(event.id, &event);
  }

  // Events relayed without a usable per-query decode — shed-fallback
  // marks, and every event of a quarantined/degraded window — belong to
  // every query (the single-query runtime's recall-1.0 fallback, per
  // query). Attribution is recorded at mark time, before the health
  // guard's quarantine verdict at window close, so a quarantined
  // window's events can carry stale per-query marks: strip those here —
  // the window-level recall-1.0 contract supersedes the decode.
  std::unordered_set<EventId> attributed;
  for (const auto& [id, ids] : recorded) {
    attributed.insert(ids.begin(), ids.end());
  }
  for (const EventId id : raw.quarantined_ids) attributed.erase(id);
  std::vector<EventId> unattributed;
  for (const Event& event : raw.relayed_events) {
    if (attributed.find(event.id) == attributed.end()) {
      unattributed.push_back(event.id);
    }
  }
  std::sort(unattributed.begin(), unattributed.end());

  // Per-query extraction inputs, deduplicated across queries: twins
  // (and guard sharers) with the same id set share one entry.
  struct EventSet {
    std::vector<const Event*> events;  ///< ascending id
    std::unordered_set<TypeId> types;
  };
  std::vector<EventSet> sets;
  std::map<std::vector<EventId>, size_t> set_index;
  std::vector<size_t> query_set(snapshot.queries.size());

  result->queries.resize(snapshot.queries.size());
  for (size_t q = 0; q < snapshot.queries.size(); ++q) {
    const QueryEntry& entry = snapshot.queries[q];
    std::vector<EventId> ids;
    const auto it = recorded.find(entry.id);
    if (it != recorded.end()) {
      ids.resize(it->second.size() + unattributed.size());
      ids.erase(std::set_union(it->second.begin(), it->second.end(),
                               unattributed.begin(), unattributed.end(),
                               ids.begin()),
                ids.end());
    } else {
      ids = unattributed;
    }

    result->queries[q].id = entry.id;
    result->queries[q].name = entry.name;
    result->queries[q].marked_events = ids.size();

    auto [set_it, inserted] = set_index.emplace(std::move(ids),
                                                sets.size());
    if (inserted) {
      EventSet set;
      set.events.reserve(set_it->first.size());
      for (const EventId id : set_it->first) {
        const auto event_it = by_id.find(id);
        DLACEP_CHECK(event_it != by_id.end());
        set.events.push_back(event_it->second);
        set.types.insert(event_it->second->type);
      }
      sets.push_back(std::move(set));
    }
    query_set[q] = set_it->second;
  }

  // Every live query gets a breaker; trips persist across Run() calls.
  std::vector<uint64_t> trips_before(snapshot.queries.size(), 0);
  std::vector<uint64_t> aborts_before(snapshot.queries.size(), 0);
  for (size_t q = 0; q < snapshot.queries.size(); ++q) {
    const auto [it, unused] = breakers_.try_emplace(
        snapshot.queries[q].id, QueryBreaker(config_.breaker));
    trips_before[q] = it->second.trips();
    aborts_before[q] = it->second.budget_aborts();
  }
  auto breaker_of = [&](size_t q) -> QueryBreaker& {
    return breakers_.find(snapshot.queries[q].id)->second;
  };

  // Witness results are a property of (guard, event set): cache across
  // groups sharing a prefix.
  std::map<std::pair<int, size_t>, bool> witness_cache;

  // One extraction *unit* per (structural group × event set) partition:
  // a dense blank-stripped event span, one budgeted engine, and the
  // members it serves. The span is evaluated in overlapping id-range
  // chunks of L = 8W with step L-(W-1): every match spans at most W-1
  // id units (the count window is enforced over ids), a match's start
  // is itself an event id, and the chunk covering it contains *all*
  // events in its id range — so chunked evaluation plus MatchSet dedup
  // is byte-identical to evaluating the whole span at once, and the
  // scheduler can interleave chunks of different units fairly.
  struct Unit {
    std::vector<size_t> members;  ///< query indexes; [0] is canonical
    std::vector<Event> events;    ///< dense, blanks stripped
    std::vector<std::pair<size_t, size_t>> chunks;  ///< [begin,end) idx
    size_t next_chunk = 0;
    std::unique_ptr<CepEngine> engine;
    MatchSet matches;
    uint64_t cost = 0;  ///< fair-share units: chunks run + pm created
    bool ran = false;   ///< at least one chunk actually evaluated
  };
  std::vector<Unit> units;

  EngineOptions engine_options;
  engine_options.partial_match_budget = config_.query_pm_budget;
  engine_options.deadline_seconds = config_.query_deadline_seconds;

  for (const SharedGroup& group : snapshot.plan.groups) {
    std::map<size_t, std::vector<size_t>> partitions;
    for (const size_t member : group.members) {
      partitions[query_set[member]].push_back(member);
    }
    for (const auto& [set_id, members] : partitions) {
      ++result->sharing.partitions;
      const EventSet& set = sets[set_id];

      bool occupied = true;
      for (const std::vector<TypeId>& required : group.required_types) {
        bool present = false;
        for (const TypeId type : required) {
          present |= set.types.find(type) != set.types.end();
        }
        if (!present) {
          occupied = false;
          break;
        }
      }
      if (!occupied) {
        result->sharing.type_pruned += members.size();
        continue;  // every member's MatchSet stays empty
      }

      if (group.guard >= 0) {
        const std::pair<int, size_t> key(group.guard, set_id);
        auto cached = witness_cache.find(key);
        if (cached == witness_cache.end()) {
          ++result->sharing.guard_checks;
          cached = witness_cache
                       .emplace(key, SeqPrefixWitness(
                                         snapshot.plan.guards[static_cast<
                                             size_t>(group.guard)],
                                         set.events))
                       .first;
        }
        if (!cached->second) {
          result->sharing.guard_pruned += members.size();
          continue;
        }
      }

      const QueryEntry& canonical = snapshot.queries[members[0]];
      Unit unit;
      unit.members = members;
      unit.events.reserve(set.events.size());
      for (const Event* e : set.events) {
        if (!e->is_blank()) unit.events.push_back(*e);
      }
      if (unit.events.empty()) continue;

      // Window-aligned chunk geometry (ids, not positions).
      const size_t w =
          std::max<size_t>(canonical.pattern->window().count_size(), 2);
      const EventId span = static_cast<EventId>(8 * w);
      const EventId step = span - static_cast<EventId>(w - 1);
      size_t begin = 0;
      while (begin < unit.events.size()) {
        const EventId base = unit.events[begin].id;
        size_t end = begin;
        while (end < unit.events.size() &&
               unit.events[end].id < base + span) {
          ++end;
        }
        unit.chunks.emplace_back(begin, end);
        if (end == unit.events.size()) break;
        size_t next = begin;
        while (next < unit.events.size() &&
               unit.events[next].id < base + step) {
          ++next;
        }
        begin = next;
      }

      EngineOptions unit_options = engine_options;
      unit_options.pattern_label = canonical.name;
      auto engine =
          CreateEngine(canonical.engine, *canonical.pattern, unit_options);
      DLACEP_CHECK_MSG(engine.ok(), engine.status().ToString());
      unit.engine = std::move(engine).value();
      units.push_back(std::move(unit));
    }
  }

  // Fair-share scheduling: every pass visits each unfinished unit once,
  // cheapest accumulated cost first, and runs exactly one chunk — a
  // heavy query can't monopolize extraction, and the visit order is a
  // deterministic function of counted work (not wall clock).
  std::vector<bool> missed(snapshot.queries.size(), false);
  std::vector<uint64_t> query_cost(snapshot.queries.size(), 0);
  for (;;) {
    std::vector<size_t> live;
    for (size_t u = 0; u < units.size(); ++u) {
      if (units[u].next_chunk < units[u].chunks.size()) live.push_back(u);
    }
    if (live.empty()) break;
    std::stable_sort(live.begin(), live.end(), [&](size_t a, size_t b) {
      return units[a].cost < units[b].cost;
    });

    for (const size_t u : live) {
      Unit& unit = units[u];
      const auto [begin, end] = unit.chunks[unit.next_chunk++];

      std::vector<size_t> runnable;
      std::vector<size_t> parked;
      for (const size_t m : unit.members) {
        (breaker_of(m).ShouldRun() ? runnable : parked).push_back(m);
      }
      if (runnable.empty()) {
        // Every member is tripped: the chunk is not evaluated at all —
        // the blown-up engine gets no cycles. Skips advance the probe
        // clock, so a later chunk of this same run can be the probe.
        ++result->sharing.chunks_skipped;
        unit.cost += 1;
        for (const size_t m : unit.members) {
          breaker_of(m).OnSkipped();
          missed[m] = true;
        }
        continue;
      }

      const EngineStats before = unit.engine->stats();
      const Status status = unit.engine->Evaluate(
          std::span<const Event>(unit.events.data() + begin, end - begin),
          &unit.matches);
      const EngineStats& after = unit.engine->stats();
      const uint64_t pm_delta =
          after.partial_matches - before.partial_matches;
      unit.cost += 1 + pm_delta;
      unit.ran = true;
      for (const size_t m : runnable) query_cost[m] += 1 + pm_delta;

      if (status.code() == StatusCode::kBudgetExceeded) {
        ++result->sharing.budget_aborts;
        for (const size_t m : runnable) {
          QueryBreaker& breaker = breaker_of(m);
          const uint64_t trips = breaker.trips();
          breaker.OnBudgetAbort();
          result->sharing.breaker_trips +=
              static_cast<size_t>(breaker.trips() - trips);
          missed[m] = true;
        }
      } else if (!status.ok()) {
        return status;
      } else {
        ++result->sharing.chunks_run;
        for (const size_t m : runnable) breaker_of(m).OnRunOk();
      }
      for (const size_t m : parked) {
        breaker_of(m).OnSkipped();
        missed[m] = true;
      }
    }
  }

  // Fan each unit's accumulated matches out to its members and publish
  // the per-engine work counters (one fresh engine per unit, so its
  // lifetime stats are the per-unit deltas).
  for (Unit& unit : units) {
    if (unit.ran) {
      ++result->sharing.engines_run;
      result->sharing.engines_shared += unit.members.size() - 1;
      PublishEngineStats(unit.engine->name(), unit.engine->stats(),
                         unit.matches.size());
    }
    for (size_t i = 0; i < unit.members.size(); ++i) {
      result->queries[unit.members[i]].matches.Merge(unit.matches);
      result->queries[unit.members[i]].shared = i > 0;
    }
  }

  for (size_t q = 0; q < snapshot.queries.size(); ++q) {
    const QueryBreaker& breaker = breaker_of(q);
    QueryResult& query = result->queries[q];
    query.degraded = missed[q];
    query.breaker_state = breaker.state();
    query.budget_aborts = breaker.budget_aborts() - aborts_before[q];
    query.breaker_trips = breaker.trips() - trips_before[q];
    query.extract_cost = query_cost[q];
  }

  // Bound breaker memory under registry churn: drop entries for queries
  // no longer registered (a re-registered query starts healthy).
  std::unordered_set<QueryId> live_ids;
  for (const QueryEntry& entry : snapshot.queries) {
    live_ids.insert(entry.id);
  }
  for (auto it = breakers_.begin(); it != breakers_.end();) {
    it = live_ids.count(it->first) ? std::next(it) : breakers_.erase(it);
  }
  return Status::Ok();
}

}  // namespace serve
}  // namespace dlacep
