// Shared scaffolding for the table/figure reproduction benches: a paper-
// shape world + pipeline built once per binary, printing helpers that put
// the paper's published values next to the measured ones, and automatic
// metrics emission — every bench run writes a machine-readable per-stage
// metrics artifact (JSON) alongside its numbers at exit.
//
// Knobs (parsed once through cloudmap::options_from_env()):
//   CLOUDMAP_THREADS       campaign worker count (1 = serial, 0/default =
//                          all hardware threads; outputs identical either way)
//   CLOUDMAP_METRICS_JSON  artifact path override (default:
//                          <bench-title-slug>_metrics.json in the cwd)
//
// Absolute counts scale with the synthetic world (~1/6 of the paper's), so
// the comparisons to read are the *percentages, ratios, and orderings*.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/pipeline.h"
#include "topology/generator.h"
#include "util/stats.h"
#include "util/table.h"

namespace cloudmap::bench {

// ---------------------------------------------------------------------------
// Bench trajectory artifacts (BENCH_<slug>.json)
//
// Every bench emits a canonical trajectory file next to its metrics
// artifact: a machine-diffable record of what the run measured (iterations,
// ns/op, thread count) plus the deterministic per-stage counters and the
// host's CPU count — and nothing wall-clock-derived beyond the ns/op
// measurements themselves (no timestamps or timer totals), so two files
// from the same code on the same host differ only in the timings under
// comparison. `host_cpus` says which host a baseline came from: a 4-thread
// row measured on a 1-CPU host is not a scaling result.
// tools/bench_compare.py diffs two trajectories, flags per-core
// regressions, and reports a host_cpus mismatch; the committed BENCH_*.json
// files at the repo root are the current baselines (regenerate with the
// `bench-baselines` CMake target).
//
// Output directory: $CLOUDMAP_BENCH_DIR when set, else the cwd.
// ---------------------------------------------------------------------------

// One measured benchmark within a trajectory. `counters` carries
// deterministic per-iteration quantities (probe counts, world facts), never
// wall-clock values.
struct TrajectoryEntry {
  std::string name;
  std::int64_t iterations = 0;
  double ns_per_op = 0.0;
  int threads = 1;
  std::vector<std::pair<std::string, double>> counters;
};

inline constexpr std::uint64_t kBenchSeed = 1;

inline const FrontendOptions& frontend_options() {
  static const FrontendOptions instance = [] {
    FrontendOptions parsed = options_from_env();
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.error.c_str());
      std::exit(2);
    }
    return parsed;
  }();
  return instance;
}

inline int bench_threads() {
  return frontend_options().pipeline.campaign.threads;
}

// Artifact path for this binary: CLOUDMAP_METRICS_JSON, else a slug derived
// from the header() title ("Table 1 — ..." → "table_1_metrics.json").
inline std::string& metrics_path_slot() {
  static std::string path = "cloudmap_metrics.json";
  return path;
}

// Trajectory slug for this binary, derived alongside the metrics path.
inline std::string& trajectory_slug_slot() {
  static std::string slug = "cloudmap";
  return slug;
}

namespace detail {

inline std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

inline std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace detail

// Writes BENCH_<slug>.json into $CLOUDMAP_BENCH_DIR (default: cwd).
// `entries` may be empty (counter-only trajectories from the reproduction
// benches); `world` and `registry` may be null when unavailable.
inline void write_trajectory(const std::string& slug,
                             const std::vector<TrajectoryEntry>& entries,
                             const World* world, int threads,
                             const MetricsRegistry* registry) {
  std::string dir;
  if (const char* env = std::getenv("CLOUDMAP_BENCH_DIR")) dir = env;
  if (!dir.empty() && dir.back() != '/') dir += '/';
  const std::string path = dir + "BENCH_" + slug + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "trajectory: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"schema\": \"cloudmap-bench-trajectory-v1\",\n";
  out << "  \"bench\": \"" << detail::json_escape(slug) << "\",\n";
  out << "  \"threads\": " << threads << ",\n";
  out << "  \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n";
  if (world != nullptr) {
    out << "  \"world\": {\"seed\": " << kBenchSeed
        << ", \"ases\": " << world->ases.size()
        << ", \"routers\": " << world->routers.size()
        << ", \"interconnects\": " << world->interconnects.size()
        << ", \"regions\": " << world->regions.size() << "},\n";
  }
  out << "  \"benchmarks\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TrajectoryEntry& entry = entries[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << detail::json_escape(entry.name)
        << "\", \"iterations\": " << entry.iterations
        << ", \"ns_per_op\": " << detail::json_number(entry.ns_per_op)
        << ", \"threads\": " << entry.threads;
    if (!entry.counters.empty()) {
      out << ", \"counters\": {";
      for (std::size_t c = 0; c < entry.counters.size(); ++c) {
        if (c != 0) out << ", ";
        out << "\"" << detail::json_escape(entry.counters[c].first)
            << "\": " << detail::json_number(entry.counters[c].second);
      }
      out << "}";
    }
    out << "}";
  }
  out << (entries.empty() ? "],\n" : "\n  ],\n");
  out << "  \"counters\": {";
  if (registry != nullptr) {
    const MetricsRegistry::Snapshot snap = registry->snapshot();
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n");
      out << "    \"" << detail::json_escape(snap.counters[i].first)
          << "\": " << snap.counters[i].second;
    }
    if (!snap.counters.empty()) out << "\n  ";
  }
  out << "}\n}\n";
  std::printf("trajectory: wrote %s\n", path.c_str());
}

inline const World& world() {
  static const World instance = [] {
    GeneratorConfig config = GeneratorConfig::paper_shape();
    config.seed = kBenchSeed;
    return generate_world(config);
  }();
  return instance;
}

namespace detail {
inline Pipeline*& pipeline_slot() {
  static Pipeline* instance = nullptr;
  return instance;
}

inline void emit_metrics_at_exit() {
  Pipeline* pipeline = pipeline_slot();
  if (pipeline == nullptr) return;  // bench never touched the pipeline
  const std::string& env_path = frontend_options().metrics_json;
  const std::string path =
      env_path.empty() ? metrics_path_slot() : env_path;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "metrics: cannot write %s\n", path.c_str());
    return;
  }
  pipeline->write_metrics_json(out);
  std::printf("\nmetrics: wrote %s\n", path.c_str());
  // Counter-only trajectory for the reproduction benches: the per-stage
  // registry counters are deterministic for a fixed world and seed.
  write_trajectory(trajectory_slug_slot(), {}, &world(), bench_threads(),
                   &pipeline->metrics());
}
}  // namespace detail

inline Pipeline& pipeline() {
  static Pipeline* instance = [] {
    PipelineOptions options = frontend_options().pipeline;
    auto* p = new Pipeline(world(), options);
    detail::pipeline_slot() = p;
    std::atexit(detail::emit_metrics_at_exit);
    return p;
  }();
  return *instance;
}

inline void header(const std::string& title, const std::string& paper_note) {
  // Derive the default metrics-artifact name from the bench title.
  std::string slug;
  for (const char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
    if (slug.size() >= 24) break;
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  if (!slug.empty()) {
    metrics_path_slot() = slug + "_metrics.json";
    trajectory_slug_slot() = slug;
  }

  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_note.c_str());
  std::printf("world: seed %llu, %zu ASes, %zu interconnects (~1/6 paper scale)\n",
              static_cast<unsigned long long>(kBenchSeed),
              world().ases.size(), world().interconnects.size());
  std::printf("================================================================\n\n");
}

// Render a CDF series as rows of (x, fraction) for plotting/diffing.
inline void print_cdf(const std::string& name, const CdfSeries& series,
                      int stride = 1) {
  std::printf("%s\n  x:        ", name.c_str());
  for (std::size_t i = 0; i < series.x.size(); i += stride)
    std::printf("%7.2f", series.x[i]);
  std::printf("\n  fraction: ");
  for (std::size_t i = 0; i < series.fraction.size(); i += stride)
    std::printf("%7.3f", series.fraction[i]);
  std::printf("\n");
}

}  // namespace cloudmap::bench
