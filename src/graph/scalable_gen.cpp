#include "graph/scalable_gen.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

#include "graph/formats.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace detcol {

// The writer streams NodeId arrays as raw bytes; graph.cpp pins the same
// facts for the mmap read path, so both ends of the .dcg pipeline share one
// set of platform assumptions.
static_assert(std::endian::native == std::endian::little,
              "the streaming .dcg writer emits native arrays as little-endian");

namespace {

// ---------------------------------------------------------------------------
// Raw POSIX spill-file I/O. These are scratch files (not durable artifacts),
// so they bypass the atomic-write protocol deliberately; the *output* .dcg
// still goes through atomic_write_chunked.
// ---------------------------------------------------------------------------

void raw_append(const std::string& path, const void* data, std::size_t len) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  DC_CHECK(fd >= 0, path, ": cannot open spill file: ", std::strerror(errno));
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t w = ::write(fd, p, len);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0) {
      const int saved = errno;
      ::close(fd);
      DC_CHECK(false, path, ": spill write failed: ", std::strerror(saved));
    }
    p += w;
    len -= static_cast<std::size_t>(w);
  }
  DC_CHECK(::close(fd) == 0, path, ": spill close failed");
}

template <typename T>
void raw_read_append(const std::string& path, std::vector<T>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  DC_CHECK(fd >= 0, path, ": cannot open spill file: ", std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    DC_CHECK(false, path, ": fstat failed: ", std::strerror(saved));
  }
  const auto bytes = static_cast<std::size_t>(st.st_size);
  DC_CHECK(bytes % sizeof(T) == 0, path, ": torn spill file (", bytes,
           " bytes)");
  const std::size_t old = out->size();
  out->resize(old + bytes / sizeof(T));
  char* p = reinterpret_cast<char*>(out->data() + old);
  std::size_t left = bytes;
  while (left > 0) {
    const ssize_t r = ::read(fd, p, left);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      const int saved = errno;
      ::close(fd);
      DC_CHECK(false, path, ": spill read failed: ", std::strerror(saved));
    }
    p += r;
    left -= static_cast<std::size_t>(r);
  }
  ::close(fd);
}

// ---------------------------------------------------------------------------
// ArcStore: chunked staging area between the producers and the writer.
//
// An arc (owner, other) is packed into one u64 (owner in the high half) and
// routed to the chunk owning its source vertex. Producers append
// concurrently (one mutex; they batch through Flusher so the lock is cold);
// past the byte budget every bucket spills to a per-chunk temp file. After
// producers finish, finalize_chunk() counting-sorts one chunk's arcs by
// owner and sorts + dedups each owner's short list, which gives the chunk's
// slice of the canonical (owner, other) CSR adjacency; take_adj() later
// yields the slices to the writer in file order. The spill decisions never
// change the output: the per-owner sort + dedup canonicalizes whatever
// interleaving produced.
// ---------------------------------------------------------------------------

constexpr std::size_t kFlushArcs = std::size_t{1} << 15;

/// log2 of the vertices per chunk: a power of two computed from n alone (so
/// chunk boundaries, and with them the bytes, never depend on the thread
/// count or the budget). About n/64, so the finalize spreads over ~64
/// chunks, clamped to [2^10, 2^20] so each chunk's arrays stay cache-sized.
unsigned chunk_shift(NodeId n) {
  const std::uint64_t len = std::clamp<std::uint64_t>(
      std::bit_ceil(std::uint64_t{n} / 64), std::uint64_t{1} << 10,
      std::uint64_t{1} << 20);
  return static_cast<unsigned>(std::countr_zero(len));
}

class ArcStore {
 public:
  ArcStore(NodeId n, std::string spill_dir, std::size_t budget_bytes)
      : n_(n),
        shift_(chunk_shift(n)),
        spill_dir_(std::move(spill_dir)),
        budget_(budget_bytes) {
    chunks_ = ((static_cast<std::size_t>(n) - 1) >> shift_) + 1;
    raw_.resize(chunks_);
    adj_mem_.resize(chunks_);
    adj_on_disk_.assign(chunks_, 0);
    raw_spilled_.assign(chunks_, 0);
    // A crashed previous run may have left a stale spill dir; appending to
    // its files would corrupt this run, so clear it up front.
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }

  ~ArcStore() {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }

  ArcStore(const ArcStore&) = delete;
  ArcStore& operator=(const ArcStore&) = delete;

  std::size_t num_chunks() const { return chunks_; }

  /// Thread-safe bulk append of packed arcs (any mix of chunks).
  void append(const std::vector<std::uint64_t>& packed) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::uint64_t arc : packed) {
      raw_[arc >> (32 + shift_)].push_back(arc);
    }
    mem_bytes_ += packed.size() * sizeof(std::uint64_t);
    if (mem_bytes_ > budget_) spill_locked();
  }

  /// Sort + dedup chunk `c`, set `degrees[owner]` for each of its owners
  /// (owners of distinct chunks are disjoint vertex ranges, so concurrent
  /// finalizes write disjoint slots), and stash the adjacency slice for
  /// take_adj. Call only after every producer has finished.
  void finalize_chunk(std::size_t c, NodeId* degrees) {
    std::vector<std::uint64_t> arcs;
    {
      std::lock_guard<std::mutex> lock(mu_);
      arcs = std::move(raw_[c]);
    }
    if (raw_spilled_[c]) {
      raw_read_append(arc_path(c), &arcs);
      std::error_code ec;
      std::filesystem::remove(arc_path(c), ec);
    }
    // Counting sort by owner: count, prefix-sum, scatter the `other` halves.
    // Afterwards ends[i] is where owner i's run ends (and i+1's begins).
    const NodeId first = static_cast<NodeId>(c << shift_);
    const std::size_t owners =
        std::min<std::size_t>(std::size_t{1} << shift_, n_ - first);
    std::vector<std::size_t> ends(owners + 1, 0);
    for (const std::uint64_t arc : arcs) {
      DC_ASSERT((arc >> 32) - first < owners);
      ++ends[(arc >> 32) - first + 1];
    }
    for (std::size_t i = 0; i < owners; ++i) ends[i + 1] += ends[i];
    std::vector<NodeId> adj(arcs.size());
    for (const std::uint64_t arc : arcs) {
      adj[ends[(arc >> 32) - first]++] = static_cast<NodeId>(arc);
    }
    arcs = {};
    // Sort each owner's short run and keep its distinct entries, compacting
    // them to the front (the write cursor never passes the read cursor).
    std::size_t kept = 0, begin = 0;
    for (std::size_t i = 0; i < owners; ++i) {
      const std::size_t end = ends[i];
      std::sort(adj.begin() + begin, adj.begin() + end);
      const std::size_t from = kept;
      for (std::size_t j = begin; j < end; ++j) {
        if (kept == from || adj[kept - 1] != adj[j]) adj[kept++] = adj[j];
      }
      degrees[first + i] = static_cast<NodeId>(kept - from);
      begin = end;
    }
    adj.resize(kept);
    if (made_dir_) {  // this run spilled: keep finals out-of-core too
      if (!adj.empty()) {
        raw_append(adj_path(c), adj.data(), adj.size() * sizeof(NodeId));
      }
      adj_on_disk_[c] = 1;
    } else {
      adj_mem_[c] = std::move(adj);
    }
  }

  /// Surrender chunk `c`'s sorted adjacency slice (each chunk once).
  std::vector<NodeId> take_adj(std::size_t c) {
    if (adj_on_disk_[c]) {
      std::vector<NodeId> adj;
      if (std::filesystem::exists(adj_path(c))) {
        raw_read_append(adj_path(c), &adj);
      }
      return adj;
    }
    return std::move(adj_mem_[c]);
  }

 private:
  std::string arc_path(std::size_t c) const {
    return spill_dir_ + "/arcs." + std::to_string(c);
  }
  std::string adj_path(std::size_t c) const {
    return spill_dir_ + "/adj." + std::to_string(c);
  }

  void spill_locked() {
    if (!made_dir_) {
      std::filesystem::create_directories(spill_dir_);
      made_dir_ = true;
    }
    for (std::size_t c = 0; c < chunks_; ++c) {
      if (raw_[c].empty()) continue;
      raw_append(arc_path(c), raw_[c].data(),
                 raw_[c].size() * sizeof(std::uint64_t));
      raw_spilled_[c] = 1;
      std::vector<std::uint64_t>().swap(raw_[c]);
    }
    mem_bytes_ = 0;
  }

  NodeId n_;
  unsigned shift_;  // chunk c holds owners [c << shift_, (c + 1) << shift_)
  std::string spill_dir_;
  std::size_t budget_;
  std::size_t chunks_ = 0;
  std::mutex mu_;
  std::size_t mem_bytes_ = 0;
  bool made_dir_ = false;
  std::vector<std::vector<std::uint64_t>> raw_;
  std::vector<std::vector<NodeId>> adj_mem_;
  std::vector<char> adj_on_disk_;
  std::vector<char> raw_spilled_;
};

/// Shard-local emission buffer: batches arcs so ArcStore's mutex is taken
/// once per kFlushArcs arcs, not per arc.
class Flusher {
 public:
  explicit Flusher(ArcStore& store) : store_(store) {
    buf_.reserve(kFlushArcs);
  }
  void emit(NodeId owner, NodeId other) {
    buf_.push_back((std::uint64_t{owner} << 32) | other);
    if (buf_.size() >= kFlushArcs) flush();
  }
  void flush() {
    if (buf_.empty()) return;
    store_.append(buf_);
    buf_.clear();
  }

 private:
  ArcStore& store_;
  std::vector<std::uint64_t> buf_;
};

// ---------------------------------------------------------------------------
// Family producers. Every arc is emitted in both directions at the point
// the undirected edge is decided (or, for rgg, re-decided symmetrically by
// both endpoints' scans), so the deduped multiset is symmetric by
// construction — the invariant the .dcg contract requires and parse_dcg
// re-verifies on the eager path.
// ---------------------------------------------------------------------------

/// Hashed Batagelj–Brandes attachment target of edge `e`. The classic
/// algorithm stores every draw in an array M and copies M[r]; here M is
/// never materialized — an odd slot r is the target slot of edge (r-1)/2,
/// whose value this recursion re-derives from the hash stream. Expected
/// depth O(log e).
NodeId ba_target(std::uint64_t e, std::uint64_t d, std::uint64_t seed) {
  for (;;) {
    const std::uint64_t r = sub_seed(seed, e) % (2 * e + 1);
    if ((r & 1) == 0) return static_cast<NodeId>((r / 2) / d);
    e = (r - 1) / 2;
  }
}

void produce_ba(const ScalableGenSpec& spec, ExecContext exec,
                ArcStore& store) {
  DC_CHECK(spec.d >= 1, "ba generator needs d >= 1, got ", spec.d);
  const std::uint64_t edges = std::uint64_t{spec.n} * spec.d;
  parallel_for_shards(
      exec, edges,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        exec.check_deadline("scalable_gen.ba");
        Flusher out(store);
        for (std::uint64_t e = begin; e < end; ++e) {
          const auto s = static_cast<NodeId>(e / spec.d);
          const NodeId t = ba_target(e, spec.d, spec.seed);
          if (s == t) continue;  // self-attachment: dropped, like loops
          out.emit(s, t);
          out.emit(t, s);
        }
        out.flush();
      },
      /*grain=*/std::size_t{1} << 16);
}

double unit_coord(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void produce_rgg(const ScalableGenSpec& spec, ExecContext exec,
                 ArcStore& store) {
  DC_CHECK(spec.radius > 0.0 && spec.radius <= 1.0,
           "rgg generator needs radius in (0, 1], got ", spec.radius);
  const NodeId n = spec.n;
  // Cell side must stay >= radius (so neighbors live in the 3x3 block) and
  // the cell count O(n) (so the grid arrays stay linear in the input).
  std::uint64_t gs = static_cast<std::uint64_t>(1.0 / spec.radius);
  gs = std::max<std::uint64_t>(1, gs);
  gs = std::min(gs,
                static_cast<std::uint64_t>(
                    std::sqrt(static_cast<double>(n))) +
                    1);
  const auto coord = [&](NodeId v, double* px, double* py) {
    *px = unit_coord(sub_seed(spec.seed, 2 * std::uint64_t{v}));
    *py = unit_coord(sub_seed(spec.seed, 2 * std::uint64_t{v} + 1));
  };
  const auto cell_xy = [&](double x) {
    return std::min<std::uint64_t>(gs - 1,
                                   static_cast<std::uint64_t>(
                                       x * static_cast<double>(gs)));
  };
  const std::size_t cells = static_cast<std::size_t>(gs) * gs;
  std::vector<std::uint64_t> starts(cells + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    double x, y;
    coord(v, &x, &y);
    ++starts[cell_xy(y) * gs + cell_xy(x) + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) starts[c + 1] += starts[c];
  std::vector<NodeId> cell_nodes(n);
  {
    std::vector<std::uint64_t> cursor(starts.begin(), starts.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      double x, y;
      coord(v, &x, &y);
      cell_nodes[cursor[cell_xy(y) * gs + cell_xy(x)]++] = v;
    }
  }
  const double r2 = spec.radius * spec.radius;
  parallel_for_shards(
      exec, n,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        exec.check_deadline("scalable_gen.rgg");
        Flusher out(store);
        for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
          double x, y;
          coord(v, &x, &y);
          const std::uint64_t cx = cell_xy(x), cy = cell_xy(y);
          const std::uint64_t x0 = cx > 0 ? cx - 1 : 0;
          const std::uint64_t x1 = std::min(gs - 1, cx + 1);
          const std::uint64_t y0 = cy > 0 ? cy - 1 : 0;
          const std::uint64_t y1 = std::min(gs - 1, cy + 1);
          for (std::uint64_t qy = y0; qy <= y1; ++qy) {
            for (std::uint64_t qx = x0; qx <= x1; ++qx) {
              const std::size_t cell = qy * gs + qx;
              for (std::uint64_t i = starts[cell]; i < starts[cell + 1];
                   ++i) {
                const NodeId w = cell_nodes[i];
                if (w == v) continue;
                double wx, wy;
                coord(w, &wx, &wy);
                const double dx = x - wx, dy = y - wy;
                if (dx * dx + dy * dy <= r2) out.emit(v, w);
              }
            }
          }
        }
        out.flush();
      },
      /*grain=*/std::size_t{1} << 12);
}

void produce_sgnm(const ScalableGenSpec& spec, ExecContext exec,
                  ArcStore& store) {
  parallel_for_shards(
      exec, spec.m,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        exec.check_deadline("scalable_gen.sgnm");
        Flusher out(store);
        for (std::uint64_t i = begin; i < end; ++i) {
          Xoshiro256 rng(sub_seed(spec.seed, i));
          const auto u = static_cast<NodeId>(rng.next_below(spec.n));
          const auto v = static_cast<NodeId>(rng.next_below(spec.n));
          if (u == v) continue;
          out.emit(u, v);
          out.emit(v, u);
        }
        out.flush();
      },
      /*grain=*/std::size_t{1} << 14);
}

void produce_sgnp(const ScalableGenSpec& spec, ExecContext exec,
                  ArcStore& store) {
  DC_CHECK(spec.p >= 0.0 && spec.p <= 1.0,
           "sgnp generator needs p in [0, 1], got ", spec.p);
  if (spec.p == 0.0) return;
  const NodeId n = spec.n;
  const double log1mp = std::log1p(-spec.p);  // -inf when p == 1
  parallel_for_shards(
      exec, n,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        exec.check_deadline("scalable_gen.sgnp");
        Flusher out(store);
        for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
          if (spec.p >= 1.0) {
            for (NodeId v = u + 1; v < n; ++v) {
              out.emit(u, v);
              out.emit(v, u);
            }
            continue;
          }
          // Geometric skipping over the row's upper triangle: one hashed
          // stream per row, same inverse-CDF scheme as gen_gnp.
          Xoshiro256 rng(sub_seed(spec.seed, u));
          std::uint64_t v = u;
          for (;;) {
            const double gap =
                std::floor(std::log1p(-rng.next_double()) / log1mp);
            if (gap >= static_cast<double>(n)) break;  // past the row
            v += 1 + static_cast<std::uint64_t>(gap);
            if (v >= n) break;
            out.emit(u, static_cast<NodeId>(v));
            out.emit(static_cast<NodeId>(v), u);
          }
        }
        out.flush();
      },
      /*grain=*/std::size_t{1} << 12);
}

// ---------------------------------------------------------------------------
// Streaming .dcg emission.
// ---------------------------------------------------------------------------

void append_le64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// ByteSink adapter that folds everything written through it into the
/// running FNV-1a the .dcg trailer stores — so the writer never needs the
/// whole payload in memory to checksum it.
class HashingSink {
 public:
  explicit HashingSink(ByteSink& out) : out_(out) {}
  void write(const void* data, std::size_t len) {
    h_ = fnv1a64(std::string_view(static_cast<const char*>(data), len), h_);
    out_.write(data, len);
  }
  void write(std::string_view bytes) { write(bytes.data(), bytes.size()); }
  std::uint64_t hash() const { return h_; }

 private:
  ByteSink& out_;
  std::uint64_t h_ = kFnv1a64Basis;
};

}  // namespace

const char* scalable_family_name(ScalableFamily family) {
  switch (family) {
    case ScalableFamily::kBarabasiAlbert: return "ba";
    case ScalableFamily::kGeometric: return "rgg";
    case ScalableFamily::kGnm: return "sgnm";
    case ScalableFamily::kGnp: return "sgnp";
  }
  return "?";
}

bool parse_scalable_family(std::string_view name, ScalableFamily* out) {
  if (name == "ba") *out = ScalableFamily::kBarabasiAlbert;
  else if (name == "rgg") *out = ScalableFamily::kGeometric;
  else if (name == "sgnm") *out = ScalableFamily::kGnm;
  else if (name == "sgnp") *out = ScalableFamily::kGnp;
  else return false;
  return true;
}

ScalableGenResult generate_scalable_dcg(const ScalableGenSpec& spec,
                                        const std::string& out_path,
                                        ExecContext exec,
                                        const ScalableGenOptions& options) {
  DC_CHECK(spec.n >= 1, "scalable generator needs n >= 1");
  ArcStore store(spec.n, out_path + ".spill", options.budget_bytes);
  switch (spec.family) {
    case ScalableFamily::kBarabasiAlbert: produce_ba(spec, exec, store); break;
    case ScalableFamily::kGeometric: produce_rgg(spec, exec, store); break;
    case ScalableFamily::kGnm: produce_sgnm(spec, exec, store); break;
    case ScalableFamily::kGnp: produce_sgnp(spec, exec, store); break;
  }

  // Sort + dedup every chunk (concurrently; disjoint degree slots), then
  // reduce the degree array — after this the adjacency slices are staged
  // and the header/offsets are fully determined.
  std::vector<NodeId> degrees(spec.n, 0);
  parallel_for_shards(
      exec, store.num_chunks(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t c = begin; c < end; ++c) {
          store.finalize_chunk(c, degrees.data());
        }
      },
      /*grain=*/1);
  std::uint64_t arcs = 0;
  NodeId max_degree = 0;
  for (const NodeId deg : degrees) {
    arcs += deg;
    max_degree = std::max(max_degree, deg);
  }
  DC_CHECK(arcs % 2 == 0,
           "internal: scalable generator emitted an asymmetric arc multiset");
  const std::uint64_t m = arcs / 2;

  atomic_write_chunked(out_path, [&](ByteSink& raw) {
    HashingSink sink(raw);
    std::string buf;
    buf.reserve(std::size_t{1} << 20);
    buf.append(reinterpret_cast<const char*>(kDcgMagic), sizeof(kDcgMagic));
    append_le64(&buf, spec.n);
    append_le64(&buf, m);
    append_le64(&buf, 0);  // flags
    // Offsets: running prefix sum over the degree array, flushed in ~1MB
    // slabs — the only whole-graph array the writer keeps is `degrees`
    // (4 bytes/vertex), never the 8-byte offsets.
    std::uint64_t running = 0;
    append_le64(&buf, running);
    for (NodeId v = 0; v < spec.n; ++v) {
      running += degrees[v];
      append_le64(&buf, running);
      if (buf.size() >= (std::size_t{1} << 20)) {
        sink.write(buf);
        buf.clear();
      }
    }
    sink.write(buf);
    // Adjacency: chunks loaded (from RAM or spill) in parallel but written
    // strictly in file order.
    parallel_ordered_chunks<std::vector<NodeId>>(
        exec, store.num_chunks(),
        [&](std::size_t c) { return store.take_adj(c); },
        [&](std::size_t, std::vector<NodeId>&& adj) {
          sink.write(adj.data(), adj.size() * sizeof(NodeId));
        });
    std::string tail;
    append_le64(&tail, sink.hash());
    raw.write(tail);  // the trailer is not part of its own checksum
  });
  return {spec.n, m, max_degree};
}

}  // namespace detcol
