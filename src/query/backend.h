// FabricBackend: the narrow read interface the query engine dispatches
// against. Its implementation is FabricView (query/fabric_view.h), over a
// format-v3 flat fabric blob that is either mmapped from a v3 file
// (io/mapped_snapshot.h) or encoded in memory by a FabricIndex
// (query/fabric_index.h) — so both paths answer from the same index arrays.
//
// The aggregate answers (FabricCounts, ConfidenceHistogram) are computed
// once, when the backend is built, and handed out by reference; the
// threshold list is one scan of the segment array. Every other result is
// handed out as a Span32 view into backend-owned storage: valid for the
// lifetime of the backend, never null (empty spans have size 0).
// All methods are const and thread-safe after construction.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/grouping.h"
#include "net/ipv4.h"
#include "net/prefix.h"

namespace cloudmap {

// A read-only view over a contiguous run of u32 values owned by a backend.
struct Span32 {
  const std::uint32_t* values = nullptr;
  std::size_t count = 0;

  const std::uint32_t* begin() const { return values; }
  const std::uint32_t* end() const { return values + count; }
  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  std::uint32_t operator[](std::size_t i) const { return values[i]; }
};

// The per-segment fields the engine aggregates and reports, as a plain
// struct rather than a reference into the blob's packed records.
struct SegmentFacts {
  std::uint32_t abi = 0;       // host-order interface addresses
  std::uint32_t cbi = 0;
  std::uint32_t peer_asn = 0;  // 0 = unknown
  std::uint32_t peer_org = 0;  // 0 = unknown
  std::uint8_t confirmation = 0;
  std::uint8_t group = 0;      // kSnapshotNoGroup = unattributed
  bool ixp = false;
  bool vpi = false;
  double confidence = 0.0;
};

// One longest-prefix match, backend-neutral: a /32 hit names an interface
// (with its fabric roles), a shorter hit a destination cone reached through
// the listed segments (ascending, deduplicated).
struct BackendHit {
  Prefix prefix;
  bool is_interface = false;
  bool abi = false;
  bool cbi = false;
  Span32 segments;
};

// Distribution of per-segment confidence scores: ten equal-width bins over
// [0, 1] (scores of exactly 1.0 land in the last bin) plus summary moments.
// Precomputed when the backend is built.
struct ConfidenceHistogram {
  std::array<std::size_t, 10> bins{};
  std::size_t segments = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// Aggregate answers in the shape of the paper's tables: interface totals
// per confirmation class (Tables 1/2), the VPI overlap (Table 4), and the
// six-group peering breakdown (Table 5), plus the §6 pinning coverage.
// Precomputed when the backend is built.
struct FabricCounts {
  std::size_t segments = 0;
  std::size_t unique_abis = 0;
  std::size_t unique_cbis = 0;
  std::size_t peer_ases = 0;
  std::size_t peer_orgs = 0;
  std::array<std::size_t, 5> by_confirmation{};  // indexed by Confirmation
  std::size_t ixp_segments = 0;   // public peerings (CBI on an IXP LAN)
  std::size_t vpi_cbis = 0;       // unique CBIs in the multi-cloud overlap
  std::array<std::size_t, kPeeringGroupCount> group_segments{};
  std::array<std::size_t, kPeeringGroupCount> group_ases{};
  std::size_t unattributed_segments = 0;
  std::size_t pinned_interfaces = 0;   // metro-level pins
  std::size_t regional_only = 0;       // regional fallback entries
  // Confidence aggregates (v2+ snapshots; zero for v1, where every segment
  // scores 0).
  double mean_confidence = 0.0;
  std::size_t confident_segments = 0;  // confidence >= 0.5
};

class FabricBackend {
 public:
  virtual ~FabricBackend() = default;

  virtual std::size_t segment_count() const = 0;
  // `index` must be < segment_count().
  virtual SegmentFacts segment(std::uint32_t index) const = 0;

  // Segment indices whose peer AS is `peer_asn`, ascending; empty = none.
  virtual Span32 peer_segments(std::uint32_t peer_asn) const = 0;
  // Peer ASNs present in the fabric, ascending (unknown/0 excluded).
  virtual Span32 asn_list() const = 0;
  // Segments in the §7.1 multi-cloud overlap, ascending.
  virtual Span32 vpi_list() const = 0;
  // Interface addresses pinned to `metro`, ascending; empty = none.
  virtual Span32 metro_interfaces(std::uint32_t metro) const = 0;
  // Metros with at least one pinned interface, ascending.
  virtual Span32 metro_list() const = 0;

  // Longest-prefix lookup of an arbitrary address against the fabric.
  virtual std::optional<BackendHit> find(Ipv4 address) const = 0;

  // Segment indices whose confidence is not below min_confidence,
  // ascending (a NaN threshold excludes nothing).
  virtual std::vector<std::uint32_t> min_confidence_list(
      double min_confidence) const = 0;
  virtual const ConfidenceHistogram& histogram() const = 0;
  virtual const FabricCounts& counts() const = 0;
};

}  // namespace cloudmap
