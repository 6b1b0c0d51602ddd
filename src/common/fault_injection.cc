#include "common/fault_injection.h"

namespace hpm {

const char* const kKnownFaultSites[] = {
    "core/pattern_lookup",  // ForwardQuery/BackwardQuery pattern-side answer
    "core/train",           // Train / WithNewHistory model (re)build
    "io/atomic_write",      // after temp file written, before atomic rename
    "io/atomic_write_data",  // mid-fwrite of the temp file (torn prefix)
    "io/atomic_write_sync",  // fsync of the temp file (EIO/ENOSPC model)
    "wal/append",           // journal record write (leaves a torn prefix)
    "wal/sync",             // journal fdatasync per the sync policy
    "wal/rotate",           // segment rollover at snapshot start
    "wal/retire",           // covered-segment deletion after commit
    "store/save_object",    // per-object trajectory/model persistence
    "store/save_manifest",  // manifest write for the new generation
    "store/save_commit",    // CURRENT pointer swap (the commit point)
    "store/load_read",      // per-file read during store load
    "net/accept",           // accept(2) on the serving socket
    "net/send",             // frame send: ships half the frame, then closes
    "net/recv",             // frame receive (connection-reset model)
    "repl/fetch",           // primary-side replication byte-range read
    "repl/apply",           // replica-side journal record application
    "rebuild/mine",         // drift-triggered rebuild: before mining
    "rebuild/freeze",       // rebuild: after mining, before the frozen
                            // model would be handed to the publish step
    "rebuild/publish",      // rebuild: under the lock, before the swap
    // Per-shard family: the literal sites are "server/shard_query:0",
    // "server/shard_query:1", ... (ShardQueryFaultSite(shard) in
    // server/object_store.h). Arming one fails that shard's share of
    // every fan-out query, which then answers partial.
    "server/shard_query:<shard>",
};
const int kNumKnownFaultSites =
    static_cast<int>(sizeof(kKnownFaultSites) / sizeof(kKnownFaultSites[0]));

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(const std::string& site, FaultRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = sites_[site];
  state.armed = true;
  state.rule = std::move(rule);
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it != sites_.end()) {
    it->second.armed = false;
    it->second.rule = FaultRule();
  }
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
}

void FaultInjector::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [site, state] : sites_) {
    state.calls = 0;
    state.fires = 0;
  }
}

void FaultInjector::Seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_ = Random(seed);
}

Status FaultInjector::Hit(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = sites_[site];
  ++state.calls;
  if (!state.armed) return Status::OK();
  const FaultRule& rule = state.rule;
  if (rule.max_fires >= 0 && state.fires >= rule.max_fires) {
    return Status::OK();
  }
  bool fire = rule.always;
  if (!fire && rule.nth_call > 0) fire = state.calls == rule.nth_call;
  if (!fire && rule.from_nth_call > 0) fire = state.calls >= rule.from_nth_call;
  if (!fire && rule.probability > 0.0) fire = rng_.Bernoulli(rule.probability);
  if (!fire) return Status::OK();
  ++state.fires;
  std::string message = "injected fault at " + site;
  if (!rule.message.empty()) {
    message += ": ";
    message += rule.message;
  }
  return Status(rule.code, std::move(message));
}

int64_t FaultInjector::calls(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.calls;
}

int64_t FaultInjector::fires(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

std::vector<std::string> FaultInjector::Sites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(sites_.size());
  for (const auto& [site, state] : sites_) names.push_back(site);
  return names;
}

}  // namespace hpm
