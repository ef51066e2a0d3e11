#include "serve/instance_store.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "cli/spec.hpp"
#include "graph/formats.hpp"
#include "util/failpoint.hpp"

namespace detcol::serve {

std::shared_ptr<const PaletteSet> ServeInstance::palettes(
    const std::string& palette_spec, std::string* canonical_out) {
  const std::string raw =
      palette_spec.empty() ? "--palette=delta1" : palette_spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto alias = palette_alias_.find(raw);
    if (alias != palette_alias_.end()) {
      if (canonical_out != nullptr) *canonical_out = alias->second;
      return palette_cache_.at(alias->second);
    }
  }
  // Palette builds are deterministic, so a racing duplicate build produces
  // the identical set; the first insert wins and the duplicate is dropped.
  cli::PaletteSource built =
      cli::build_palettes(cli::parse_spec(raw), graph_);
  std::lock_guard<std::mutex> lock(mu_);
  auto cached = palette_cache_.find(built.spec);
  if (cached == palette_cache_.end()) {
    cached = palette_cache_
                 .emplace(built.spec, std::make_shared<const PaletteSet>(
                                          std::move(built.palettes)))
                 .first;
  }
  palette_alias_[raw] = built.spec;
  if (canonical_out != nullptr) *canonical_out = built.spec;
  return cached->second;
}

InstanceStore::Acquired InstanceStore::acquire(
    const std::string& raw_graph_spec, ExecContext exec) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto alias = alias_.find(raw_graph_spec);
  if (alias != alias_.end()) {
    ++hits_;
    touch_locked(alias->second);
    return {by_canonical_.at(alias->second), true};
  }
  // Cold path, still under the lock (see header): build through the exact
  // one-shot code path, then dedupe by content checksum so differently
  // spelled specs of one graph share a single residency slot.
  cli::GraphSource built = cli::build_graph(
      cli::parse_spec(raw_graph_spec), /*allow_algo_seed=*/false,
      GraphFormat::kAuto, exec);
  const auto canon = alias_.find(built.spec);
  if (canon != alias_.end()) {
    ++hits_;
    alias_[raw_graph_spec] = canon->second;
    touch_locked(canon->second);
    return {by_canonical_.at(canon->second), true};
  }
  // Content checksum for spec dedup. The .dcg encoding is canonical, so for
  // a mapped graph the file's own bytes ARE dcg_bytes(graph) — hashing the
  // mapping directly skips re-serializing a graph that may be chosen
  // precisely because it does not fit in RAM as a heap CSR.
  const std::string_view mapped = built.graph.mapped_bytes();
  const std::uint64_t sum = !mapped.empty()
                                ? fnv1a64(mapped)
                                : fnv1a64(dcg_bytes(built.graph));
  const auto by_sum = by_sum_.find(sum);
  if (by_sum != by_sum_.end()) {
    ++hits_;
    alias_[raw_graph_spec] = by_sum->second;
    alias_[built.spec] = by_sum->second;
    touch_locked(by_sum->second);
    return {by_canonical_.at(by_sum->second), true};
  }
  ++misses_;
  auto instance = std::make_shared<ServeInstance>(
      built.spec, std::move(built.graph), sum);
  while (lru_.size() >= max_instances_) {
    // Strong exception safety: the failpoint fires before any mutation, so
    // an injected eviction failure leaves the store exactly as it was.
    DC_FAILPOINT("serve.instance.evict");
    const std::string victim = lru_.back();
    lru_.pop_back();
    const auto vit = by_canonical_.find(victim);
    by_sum_.erase(vit->second->checksum());
    by_canonical_.erase(vit);
    for (auto it = alias_.begin(); it != alias_.end();) {
      it = it->second == victim ? alias_.erase(it) : std::next(it);
    }
    ++evictions_;
  }
  lru_.push_front(instance->canonical_spec());
  by_canonical_[instance->canonical_spec()] = instance;
  by_sum_[sum] = instance->canonical_spec();
  alias_[raw_graph_spec] = instance->canonical_spec();
  alias_[instance->canonical_spec()] = instance->canonical_spec();
  return {std::move(instance), false};
}

InstanceStore::Counters InstanceStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters c;
  c.hits = hits_;
  c.misses = misses_;
  c.evictions = evictions_;
  c.resident = lru_.size();
  return c;
}

void InstanceStore::touch_locked(const std::string& canonical) {
  const auto it = std::find(lru_.begin(), lru_.end(), canonical);
  if (it != lru_.end()) lru_.splice(lru_.begin(), lru_, it);
}

}  // namespace detcol::serve
