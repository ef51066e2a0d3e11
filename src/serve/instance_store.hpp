// The server's LRU-bounded instance cache — what makes warm requests cheap.
//
// A cold `detcol color` pays process startup, graph construction (or file
// parse), palette construction, and every per-engine M61 power table before
// a single seed is evaluated. The serving layer amortizes all of it:
//
//   * ServeInstance keeps one parsed Graph resident, plus a per-instance
//     cache of built PaletteSets (keyed by canonical palette spec) and a
//     PowerTableStore that hands the pipeline engines shared power tables
//     across requests.
//   * InstanceStore maps request graph specs to instances. Raw specs alias:
//     "--gen=gnp --n=100 --p=0.1 --seed=1" and a reordered/defaulted
//     spelling of the same instance resolve — via the canonical spec string
//     build_graph produces, then via the fnv1a64 checksum of the graph's
//     .dcg serialization — to ONE resident instance.
//   * Residency is LRU-bounded at `max_instances` graphs; eviction drops
//     the instance's palettes and tables with it. In-flight requests hold
//     shared_ptr handles, so evicting an instance under a running request
//     is safe — the memory goes when the last request finishes.
//
// Sharing never changes results: graphs/palettes are immutable after
// construction, and power tables are pure functions of their inputs
// (hashing/batch_eval.hpp). The store only changes WHERE the bytes come
// from, never what they are.
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
#include <span>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"
#include "hashing/batch_eval.hpp"

namespace detcol::serve {

/// Thread-safe PowerTableProvider backed by a byte-bounded LRU. Keyed by a
/// hash of (independence, points); a hash collision is harmless: the cached
/// table is verified with M61PowerTable::matches() before reuse, and a
/// mismatch falls back to building a fresh table for this request.
class PowerTableStore : public PowerTableProvider {
 public:
  explicit PowerTableStore(std::size_t max_bytes = std::size_t{256} << 20)
      : max_bytes_(max_bytes) {}

  std::shared_ptr<const M61PowerTable> acquire(
      std::span<const std::uint64_t> points, unsigned independence) override;

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t resident_tables = 0;
  };
  Counters counters() const;

 private:
  struct Entry {
    std::uint64_t key;
    std::shared_ptr<const M61PowerTable> table;
  };

  const std::size_t max_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

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
  PowerTableStore& tables() { return tables_; }

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
  PowerTableStore tables_;

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
