#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "cli/pipeline.hpp"
#include "cli/spec.hpp"
#include "graph/coloring.hpp"

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {
// Open spans of the calling thread, innermost last: the parent of a new span.
thread_local std::vector<int> t_open;
}  // namespace

int Tracer::open(const std::string& name, std::uint64_t request) {
  if (!on_) return -1;
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start = start;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.request = request != 0 || s.parent < 0 ? request : spans_[s.parent].request;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  t_open.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end = end;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::self_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    total += spans_[i].end - spans_[i].start;
    for (const Span& c : spans_) {
      if (c.parent == static_cast<int>(i)) total -= c.end - c.start;
    }
  }
  return total;
}

double Tracer::children_seconds(const std::string& parent) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const Span& c : spans_) {
    if (c.parent >= 0 && spans_[c.parent].name == parent) {
      total += c.end - c.start;
    }
  }
  return total;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

void put_count(Counts& counts, const std::string& name, std::uint64_t value,
               std::vector<std::string>& errors) {
  const auto [it, inserted] = counts.emplace(name, value);
  if (!inserted && it->second != value) {
    errors.push_back("exact count " + name + " differs: " +
                     std::to_string(it->second) + " vs " +
                     std::to_string(value));
  }
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

PipelineCall call_pipeline(const std::string& algo, const Graph& g,
                           const PaletteSet& palettes, ExecContext exec,
                           bool want_stats) {
  PipelineCall out;
  const double t0 = now_s();
  detcol::cli::PipelineRun run = detcol::cli::run_pipeline(
      algo, g, palettes, exec, /*seed=*/1, want_stats);
  out.seconds = now_s() - t0;
  out.reported_seconds = run.wall_seconds;
  out.rounds = run.rounds;
  out.stats_json = std::move(run.stats_json);
  const double v0 = now_s();
  const detcol::VerifyResult v =
      detcol::verify_coloring(g, palettes, run.coloring);
  out.verify_seconds = now_s() - v0;
  out.verified = v.ok;
  out.issue = v.issue;
  out.colors_used = detcol::cli::count_distinct_colors(run.coloring);
  out.coloring_hash =
      fnv1a(run.coloring.color.data(),
            run.coloring.color.size() * sizeof(detcol::Color));
  return out;
}

}  // namespace perfbench
