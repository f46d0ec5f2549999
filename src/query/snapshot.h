// RunSnapshot: the durable output of one full pipeline run — every inferred
// interconnection segment with its annotations (peer ASN/ORG, confirmation
// heuristic, IXP/VPI classification, peering group), the §6 metro/regional
// pins, the §5.2 alias sets, and the run's per-stage metrics. This is the
// *map* the paper produces, captured as one value so it can be persisted
// (io/snapshot.h), indexed (io/snapshot_v3.h), and compared across runs
// (query/diff.h) without re-running the campaign.
//
// Everything here is plain data. Collections are kept in the canonical order
// save_snapshot() writes (segments by (ABI, CBI), pins and regional entries
// by address, alias-set members ascending, sets by first member), so a
// loaded snapshot re-saves byte-identically.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "infer/fabric.h"
#include "net/ids.h"
#include "net/ipv4.h"
#include "obs/stage_report.h"

namespace cloudmap {

// `group` value for segments whose peer AS could not be attributed.
inline constexpr std::uint8_t kSnapshotNoGroup = 0xFF;

struct SnapshotSegment {
  Ipv4 abi;
  Ipv4 cbi;
  Ipv4 prior_abi;
  Ipv4 post_cbi;
  std::int32_t first_round = 1;
  Confirmation confirmation = Confirmation::kUnconfirmed;
  bool shifted = false;
  bool ixp = false;  // CBI inside an IXP peering LAN (public peering)
  bool vpi = false;  // CBI in the §7.1 multi-cloud overlap set
  Asn owner_hint;
  Asn peer_asn;   // resolved peer AS (owner hint fallback applied); 0=unknown
  OrgId peer_org;  // organization of peer_asn; 0=unknown
  std::uint8_t group = kSnapshotNoGroup;  // PeeringGroup, Table 5 axis
  // Per-segment confidence (infer/confidence.h), persisted in the v3 flat
  // blob (section 6 of a v2 file). All zero when loaded from a v1 file.
  std::uint32_t observations = 0;  // candidate observations merged
  std::uint32_t rounds_mask = 0;   // bit r-1 set when round r contributed
  double hop_density = 0.0;        // mean responding-hop density, [0, 1]
  double confidence = 0.0;         // blended confidence score, [0, 1]
  std::vector<std::uint32_t> regions;         // source regions, ascending
  std::vector<std::uint32_t> dest_slash24s;   // /24 networks, ascending
};

struct SnapshotPin {
  std::uint32_t address = 0;
  std::uint32_t metro = kInvalidIndex;
  std::uint8_t rule = 0;           // PinRule
  std::uint8_t anchor_source = 0;  // AnchorSource
  std::int32_t round = 0;          // propagation round (0 = anchor)
};

struct RunSnapshot {
  std::uint64_t seed = 0;
  std::int32_t threads = 0;
  std::uint8_t subject = 0;  // CloudProvider
  std::vector<SnapshotSegment> segments;
  std::vector<SnapshotPin> pins;  // metro-level pins, by address
  // Regional fallback for interfaces unpinned at metro level: addr → region.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> regional;
  std::vector<std::vector<std::uint32_t>> alias_sets;  // member addresses
  std::vector<StageReport> stage_reports;  // canonical stage order
  // Hazard provenance (scenario/hazard.h): the canonical profile spec the
  // run was produced under, plus optional scorecard metrics stamped by the
  // degradation scorecard. Empty profile ⇒ the hazard section is not
  // written, so pre-hazard snapshots stay byte-identical.
  std::string hazard_profile;
  std::vector<std::pair<std::string, double>> hazard_metrics;  // by name
};

// Sort every collection into the canonical order documented above (in
// place). save_snapshot() applies this; call it directly when constructing
// snapshots by hand for comparison.
void canonicalize(RunSnapshot& snapshot);

}  // namespace cloudmap
