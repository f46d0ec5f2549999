// The map half of the benchmark: one world from generate_world to a
// mapped, viewable v3 snapshot, with every layer call under its own span,
// plus the output check that re-loads the saved file and compares the
// zero-copy FabricView with a FabricIndex on every QueryKind.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/pipeline.h"
#include "io/mapped_snapshot.h"
#include "query/fabric_view.h"
#include "trace.h"

namespace perfbench {

struct MapConfig {
  bool small_world = false;  // GeneratorConfig::small(), not paper_shape()
  bool hazards = false;      // the gauntlet preset plus a reprobe budget
  int threads = 1;           // campaign worker threads
};

// What one map produced, and the work counters its stages reported.
struct MapResult {
  double map_s = 0.0;  // generate_world .. FabricView constructed
  cloudmap::InferenceScore score;
  std::uint64_t round2_probes = 0;
  std::uint64_t round2_traceroutes = 0;
  double worker_utilization = 0.0;  // round 2
  std::uint64_t bgp_cache_hits = 0;  // rounds 1 and 2
  std::uint64_t bgp_cache_misses = 0;
  std::uint64_t retries = 0;  // rounds 1 and 2
  std::uint64_t recovered = 0;
  std::uint64_t vpi_probes = 0;
  std::uint64_t snapshot_bytes = 0;
  cloudmap::MappedSnapshot mapping;
  std::unique_ptr<cloudmap::FabricView> view;  // over mapping.blob()
};

// Maps the world `world_seed` and saves its v3 snapshot to `path`. Spans go
// under one "bench.map" root tagged with `request`. Returns false with a
// diagnostic when the snapshot cannot be saved or mapped.
bool map_world(const MapConfig& config, std::uint64_t world_seed,
               const std::string& path, Tracer& tracer, std::uint64_t request,
               MapResult& out, std::string* error);

// Re-loads `path` with load_snapshot_file, builds a FabricIndex of it, and
// answers every QueryKind (every peer, every metro, every segment's ABI and
// CBI, a spread of thresholds and random addresses) from both the index and
// `view`. Returns the number of requests whose encoded replies differ; -1
// if the file does not load.
long check_view_against_index(const std::string& path,
                              const cloudmap::FabricView& view,
                              std::uint64_t seed, std::string* error);

}  // namespace perfbench
