#include "serve/registry.h"

#include <mutex>
#include <utility>

#include "cep/engine.h"
#include "obs/stages.h"

namespace dlacep {
namespace serve {

QueryRegistry::QueryRegistry() {
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked();  // readers never see a null snapshot
}

void QueryRegistry::PublishLocked() {
  auto snapshot = std::make_shared<RegistrySnapshot>();
  snapshot->version = version_;
  snapshot->queries = live_;
  std::vector<PlanQuery> plan_queries;
  plan_queries.reserve(live_.size());
  for (const QueryEntry& entry : live_) {
    snapshot->max_window = std::max(
        snapshot->max_window, entry.pattern->window().count_size());
    plan_queries.push_back(PlanQuery{entry.pattern.get(), entry.engine});
  }
  snapshot->plan = BuildSharedCepPlan(plan_queries);
  // The previous snapshot is released outside the reader lock, so its
  // destructor never runs while a reader waits.
  std::shared_ptr<const RegistrySnapshot> retired;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    retired = std::exchange(snapshot_, std::move(snapshot));
  }
  obs::RegistryQueries()->Set(static_cast<double>(live_.size()));
  if (version_ > 0) obs::RegistrySnapshots()->Increment();
}

StatusOr<QueryId> QueryRegistry::Register(const Pattern& pattern,
                                          QueryOptions options) {
  Status valid = pattern.Validate();
  if (!valid.ok()) return valid;
  if (pattern.window().kind != WindowKind::kCount) {
    return Status::InvalidArgument(
        "online serving requires a count window (WITHIN n EVENTS)");
  }
  // Extraction creates this engine at end of stream; a shape it cannot
  // compile is rejected here, not there.
  auto probe = CreateEngine(options.engine, pattern);
  if (!probe.ok()) return probe.status();
  std::lock_guard<std::mutex> lock(mu_);
  QueryEntry entry;
  entry.id = next_id_++;
  entry.name = options.name.empty() ? "q" + std::to_string(entry.id)
                                    : std::move(options.name);
  entry.pattern = std::make_shared<const Pattern>(pattern);
  entry.threshold = options.threshold;
  entry.engine = options.engine;
  const QueryId id = entry.id;
  live_.push_back(std::move(entry));
  ++version_;
  PublishLocked();
  return id;
}

Status QueryRegistry::Unregister(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < live_.size(); ++i) {
    if (live_[i].id != id) continue;
    live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
    ++version_;
    PublishLocked();
    return Status::Ok();
  }
  return Status::NotFound("query id " + std::to_string(id) +
                          " is not registered");
}

std::shared_ptr<const RegistrySnapshot> QueryRegistry::Acquire() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

size_t QueryRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

}  // namespace serve
}  // namespace dlacep
