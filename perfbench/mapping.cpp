#include "mapping.h"

#include <optional>
#include <utility>
#include <vector>

#include "io/snapshot.h"
#include "query/engine.h"
#include "query/fabric_index.h"
#include "scenario/score.h"
#include "scenario/world_hazards.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace cloudmap;

const char* stage_span(StageId stage) {
  switch (stage) {
    case StageId::kRound1: return "infer.round1";
    case StageId::kRound2: return "infer.round2";
    case StageId::kHeuristics: return "infer.heuristics";
    case StageId::kAliasVerification: return "alias.verify";
    case StageId::kVpiDetection: return "vpi.detect";
    case StageId::kAnchors: return "pinning.anchors";
    case StageId::kPinning: return "pinning.propagate";
  }
  return "infer.unknown";
}

// Retry passes per failed target on the hazard workload.
constexpr int kHazardReprobeBudget = 2;

}  // namespace

bool map_world(const MapConfig& config, std::uint64_t world_seed,
               const std::string& path, Tracer& tracer, std::uint64_t request,
               MapResult& out, std::string* error) {
  const HazardProfile profile = config.hazards
                                    ? *HazardProfile::preset("gauntlet")
                                    : HazardProfile{};
  const std::int64_t start = now_ns();
  World world;  // outlives the pipeline, which borrows it
  std::optional<Pipeline> pipeline;
  {
    Span root(tracer, "bench.map", request);
    GeneratorConfig generator = config.small_world
                                    ? GeneratorConfig::small()
                                    : GeneratorConfig::paper_shape();
    generator.seed = world_seed;
    {
      Span span(tracer, "topology.generate_world", request);
      world = generate_world(generator);
    }
    PipelineOptions options;
    options.seed = world_seed;
    options.campaign.threads = config.threads;
    if (config.hazards) options.campaign.reprobe.budget = kHazardReprobeBudget;
    {
      Span span(tracer, "scenario.world_hazards", request);
      apply_world_hazards(world, profile, world_seed);
    }
    {
      Span span(tracer, "scenario.dataplane_hazards", request);
      apply_dataplane_hazards(options, profile, world_seed);
    }
    {
      Span span(tracer, "controlplane.pipeline_build", request);
      pipeline.emplace(world, options);
    }
    for (const StageId stage : all_stages()) {
      Span span(tracer, stage_span(stage), request);
      pipeline->run_until(stage);
    }
    const RunSnapshot* snapshot = nullptr;
    {
      Span span(tracer, "io.snapshot_build", request);
      snapshot = &pipeline->run_snapshot();
    }
    {
      Span span(tracer, "io.save", request);
      if (!save_snapshot_file(path, *snapshot, error)) return false;
    }
    {
      Span span(tracer, "io.map", request);
      std::optional<MappedSnapshot> mapped = MappedSnapshot::open(path, error);
      if (!mapped) return false;
      out.mapping = std::move(*mapped);
    }
    {
      Span span(tracer, "query.view_build", request);
      out.view = std::make_unique<FabricView>(out.mapping.blob());
    }
  }
  out.map_s = static_cast<double>(now_ns() - start) / 1e9;

  out.score = pipeline->score();
  for (const StageId stage : {StageId::kRound1, StageId::kRound2}) {
    const StageReport& report = *pipeline->report(stage);
    out.bgp_cache_hits += report.bgp_cache_hits;
    out.bgp_cache_misses += report.bgp_cache_misses;
    out.retries += report.retries;
    out.recovered += report.recovered_targets;
  }
  const StageReport& round2 = *pipeline->report(StageId::kRound2);
  out.round2_probes = round2.probes;
  out.round2_traceroutes = round2.traceroutes;
  out.worker_utilization = round2.worker_utilization;
  out.vpi_probes = pipeline->report(StageId::kVpiDetection)->probes;
  out.snapshot_bytes = out.mapping.file_size();
  return true;
}

long check_view_against_index(const std::string& path, const FabricView& view,
                              std::uint64_t seed, std::string* error) {
  std::optional<RunSnapshot> loaded = load_snapshot_file(path, error);
  if (!loaded) return -1;
  const FabricIndex index(std::move(*loaded));
  const QueryEngine from_view(static_cast<const FabricBackend&>(view));
  const QueryEngine from_index(index);

  std::vector<QueryRequest> requests;
  const auto add = [&requests](QueryRequest request) {
    requests.push_back(request);
    request.want_briefs = true;
    requests.push_back(request);
  };
  for (const QueryKind kind :
       {QueryKind::kCounts, QueryKind::kPeerList, QueryKind::kVpiCandidates,
        QueryKind::kConfidenceHistogram}) {
    QueryRequest request;
    request.kind = kind;
    add(request);
  }
  for (int tenth = 0; tenth <= 10; ++tenth) {
    QueryRequest request;
    request.kind = QueryKind::kMinConfidence;
    request.min_confidence = tenth / 10.0;
    add(request);
    request.kind = QueryKind::kPeersOf;  // filtered peers_of, first peer
    request.asn = view.asn_list().empty() ? 0 : view.asn_list()[0];
    add(request);
  }
  for (const std::uint32_t asn : view.asn_list()) {
    QueryRequest request;
    request.kind = QueryKind::kPeersOf;
    request.asn = asn;
    add(request);
  }
  std::vector<std::uint32_t> metros(view.metro_list().begin(),
                                    view.metro_list().end());
  metros.push_back(0xFFFFFFFEu);  // a metro with no pins
  for (const std::uint32_t metro : metros) {
    QueryRequest request;
    request.kind = QueryKind::kInterfacesIn;
    request.metro = metro;
    add(request);
  }
  Rng rng(seed);
  for (std::uint32_t i = 0; i < view.segment_count(); ++i) {
    const SegmentFacts facts = view.segment(i);
    for (const std::uint32_t address :
         {facts.abi, facts.cbi, static_cast<std::uint32_t>(rng.next())}) {
      QueryRequest request;
      request.kind = QueryKind::kLookup;
      request.address = address;
      requests.push_back(request);
    }
  }

  long mismatches = 0;
  for (const QueryRequest& request : requests) {
    if (serve::encode_query_response(from_view.execute(request)) !=
        serve::encode_query_response(from_index.execute(request)))
      ++mismatches;
  }
  return mismatches;
}

}  // namespace perfbench
