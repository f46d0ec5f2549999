// FabricView: the FabricBackend over a validated format-v3 flat fabric
// blob (io/snapshot_v3.h), and the only one: every index it serves was
// derived once, by snapv3::encode_flat_fabric(). Construction casts typed
// pointers over the blob and precomputes the two aggregate answers, the
// confidence histogram and the FabricCounts: one pass over the segment
// array, then one over the /32 LPM rows and one over the by-peer table.
// No hash sets; the only scratch is a list of peer orgs, about one per
// peer AS. That costs 35–125 µs on the paper-shaped fabric (3,646
// segments), once per open instead of once per kCounts call. Nothing
// proportional to fabric size is decoded or kept, so a daemon can open a
// snapshot, validate it once, and start answering queries out of the page
// cache immediately. The aggregates live in the view, never in the blob,
// so snapshot bytes do not depend on them.
//
// min_confidence_list() is one scan of the segment array in index order,
// reserved exactly by a binary search of the descending confidence order:
// no sort per call.
//
// The view borrows the blob: keep the backing storage alive for the view's
// lifetime. That is a MappedSnapshot (io/mapped_snapshot.h) on the
// zero-copy path, or the in-memory buffer a FabricIndex
// (query/fabric_index.h) owns for snapshots loaded by copying.
// Immutable after construction; safe for any number of reader threads.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "io/snapshot_v3.h"
#include "query/backend.h"

namespace cloudmap {

class FabricView : public FabricBackend {
 public:
  // `blob` must be 8-byte aligned and already accepted by
  // snapv3::validate_flat_fabric() (MappedSnapshot guarantees both).
  explicit FabricView(const unsigned char* blob);
  FabricView(const FabricView&) = delete;
  FabricView& operator=(const FabricView&) = delete;

  std::size_t segment_count() const override {
    return v_.dir->segment_count;
  }
  SegmentFacts segment(std::uint32_t index) const override;
  Span32 peer_segments(std::uint32_t peer_asn) const override;
  Span32 asn_list() const override { return pool_span(v_.dir->peer_asns); }
  Span32 vpi_list() const override { return pool_span(v_.dir->vpi); }
  Span32 metro_interfaces(std::uint32_t metro) const override;
  Span32 metro_list() const override {
    return pool_span(v_.dir->pinned_metros);
  }
  std::optional<BackendHit> find(Ipv4 address) const override;
  std::vector<std::uint32_t> min_confidence_list(
      double min_confidence) const override;
  const ConfidenceHistogram& histogram() const override {
    return histogram_;
  }
  const FabricCounts& counts() const override { return counts_; }

  // The raw typed view, for callers that need sections the backend
  // interface does not cover (stage reports, pins, alias sets).
  const snapv3::V3View& raw() const noexcept { return v_; }

 private:
  Span32 pool_span(snapv3::V3Span span) const {
    return {v_.pool + span.off, span.len};
  }

  snapv3::V3View v_;
  ConfidenceHistogram histogram_;
  FabricCounts counts_;
};

}  // namespace cloudmap
