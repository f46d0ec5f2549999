// FabricBackend: the narrow read interface the query engine dispatches
// against. Its implementation is FabricView (query/fabric_view.h), over a
// format-v3 flat fabric blob that is either mmapped from a v3 file
// (io/mapped_snapshot.h) or encoded in memory by a FabricIndex
// (query/fabric_index.h) — so both paths answer from the same index arrays.
//
// Results are handed out as Span32 views into backend-owned storage: valid
// for the lifetime of the backend, never null (empty spans have size 0).
// All methods are const and thread-safe after construction.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

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

  // Segment indices with confidence >= min_confidence, ascending.
  virtual std::vector<std::uint32_t> min_confidence_list(
      double min_confidence) const = 0;
  virtual const ConfidenceHistogram& histogram() const = 0;

  // Aggregate totals the counts query folds in.
  virtual std::size_t pin_total() const = 0;
  virtual std::size_t regional_total() const = 0;
};

}  // namespace cloudmap
