// The server's LRU-bounded instance cache — what makes warm requests cheap.
//
// A cold `detcol color` pays process startup, graph construction (or file
// parse) and palette construction before a single seed is evaluated. The
// serving layer amortizes those:
//
//   * ServeInstance keeps one parsed Graph resident, plus a per-instance
//     cache of built PaletteSets (keyed by canonical palette spec).
//   * InstanceStore maps request graph specs to instances. Raw specs alias:
//     "--gen=gnp --n=100 --p=0.1 --seed=1" and a reordered/defaulted
//     spelling of the same instance resolve — via the canonical spec string
//     build_graph produces, then via the fnv1a64 checksum of the graph's
//     .dcg serialization — to ONE resident instance.
//   * Residency is LRU-bounded at `max_instances` graphs; eviction drops
//     the instance's palettes with it. In-flight requests hold shared_ptr
//     handles, so evicting an instance under a running request is safe —
//     the memory goes when the last request finishes.
//
// The seed engines' power tables are not cached: each run builds its own,
// as the one-shot CLI does. A table serves one seed search, and at served
// sizes building it is cheaper than hashing its points to look it up.
//
// Sharing never changes results: graphs/palettes are immutable after
// construction. The store only changes WHERE the bytes come from, never
// what they are.
//
// Thread safety: every public entry point locks internally (this is the
// serving layer — the core-pipeline no-mutex rule does not apply here).
// Instance builds run under the store lock: cold misses serialize, which
// keeps "two racing requests for the same new graph" building it once.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "exec/exec.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"

namespace detcol::serve {

/// One resident graph with everything requests on it can share.
class ServeInstance {
 public:
  ServeInstance(std::string canonical_spec, Graph graph,
                std::uint64_t checksum)
      : canonical_spec_(std::move(canonical_spec)),
        graph_(std::move(graph)),
        checksum_(checksum) {}

  const std::string& canonical_spec() const { return canonical_spec_; }
  const Graph& graph() const { return graph_; }
  std::uint64_t checksum() const { return checksum_; }

  /// The PaletteSet for `palette_spec` (raw request spelling), built through
  /// cli::build_palettes on first use and cached under its canonical spec.
  /// Returns the canonical spec in *canonical_out. Throws cli::UsageError on
  /// a malformed spec.
  std::shared_ptr<const PaletteSet> palettes(const std::string& palette_spec,
                                             std::string* canonical_out);

 private:
  const std::string canonical_spec_;
  const Graph graph_;
  const std::uint64_t checksum_;

  std::mutex mu_;
  std::map<std::string, std::string> palette_alias_;  // raw -> canonical
  std::map<std::string, std::shared_ptr<const PaletteSet>> palette_cache_;
};

class InstanceStore {
 public:
  explicit InstanceStore(std::size_t max_instances)
      : max_instances_(max_instances == 0 ? 1 : max_instances) {}

  struct Acquired {
    std::shared_ptr<ServeInstance> instance;
    bool hit = false;  // served from residency (alias or checksum match)
  };

  /// Resolve `raw_graph_spec` to a resident instance, building (and possibly
  /// evicting) on miss. `exec` parallelizes a cold --input file parse.
  /// Throws cli::UsageError on a malformed spec and CheckError on unreadable
  /// input files.
  Acquired acquire(const std::string& raw_graph_spec, ExecContext exec);

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resident = 0;
  };
  Counters counters() const;

 private:
  void touch_locked(const std::string& canonical);

  const std::size_t max_instances_;
  mutable std::mutex mu_;
  std::list<std::string> lru_;  // canonical specs, front = most recent
  std::map<std::string, std::shared_ptr<ServeInstance>> by_canonical_;
  std::map<std::string, std::string> alias_;     // raw spec -> canonical
  std::map<std::uint64_t, std::string> by_sum_;  // checksum -> canonical
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace detcol::serve
