#include "query/fabric_view.h"

#include <algorithm>

#include "query/snapshot.h"

namespace cloudmap {

namespace {

// V3Segment::flags bits (io/snapshot_v3.h): shifted|ixp|vpi.
constexpr std::uint8_t kSegIxp = 0x02;
constexpr std::uint8_t kSegVpi = 0x04;
// V3TrieEntry::flags bits: is_interface|abi|cbi.
constexpr std::uint8_t kTrieInterface = 0x01;
constexpr std::uint8_t kTrieAbi = 0x02;
constexpr std::uint8_t kTrieCbi = 0x04;

}  // namespace

FabricView::FabricView(const unsigned char* blob)
    : v_(snapv3::V3View::over(blob)) {
  // One pass over the segment array feeds the histogram and the per-segment
  // counts; the "unique" counts then come from the blob's sorted tables.
  const std::uint32_t total = v_.dir->segment_count;
  histogram_.segments = total;
  counts_.segments = total;
  std::vector<std::uint32_t> orgs;  // the only count with a scratch set
  if (total > 0) {
    double sum = 0.0;  // in index order, so both means are reproducible
    histogram_.min = v_.segments[0].confidence;
    histogram_.max = histogram_.min;
    for (std::uint32_t i = 0; i < total; ++i) {
      const snapv3::V3Segment& seg = v_.segments[i];
      const double score = seg.confidence;
      sum += score;
      histogram_.min = std::min(histogram_.min, score);
      histogram_.max = std::max(histogram_.max, score);
      auto bin = static_cast<std::size_t>(score * 10.0);
      if (bin >= histogram_.bins.size())
        bin = histogram_.bins.size() - 1;  // score == 1.0
      ++histogram_.bins[bin];
      if (score >= 0.5) ++counts_.confident_segments;
      ++counts_.by_confirmation[seg.confirmation];
      if ((seg.flags & kSegIxp) != 0) ++counts_.ixp_segments;
      if (seg.group == kSnapshotNoGroup)
        ++counts_.unattributed_segments;
      else
        ++counts_.group_segments[seg.group];
      if (seg.peer_asn == 0 && seg.peer_org != 0)
        orgs.push_back(seg.peer_org);  // known peers' orgs come below
    }
    histogram_.mean = sum / static_cast<double>(total);
    counts_.mean_confidence = histogram_.mean;
  }
  // Each /32 LPM row is one distinct interface address; its flags say
  // whether some segment uses it as ABI or as CBI. It is a VPI CBI when a
  // VPI segment in its list has it as the CBI (the list also holds the
  // segments that use it as ABI).
  const snapv3::V3Span hosts = v_.dir->trie_by_len[32];
  for (std::uint32_t k = 0; k < hosts.len; ++k) {
    const snapv3::V3TrieEntry& row = v_.trie[hosts.off + k];
    if ((row.flags & kTrieAbi) != 0) ++counts_.unique_abis;
    if ((row.flags & kTrieCbi) == 0) continue;
    ++counts_.unique_cbis;
    for (const std::uint32_t i : pool_span(row.segments)) {
      const snapv3::V3Segment& seg = v_.segments[i];
      if ((seg.flags & kSegVpi) != 0 && seg.cbi == row.network) {
        ++counts_.vpi_cbis;
        break;
      }
    }
  }

  // by_peer holds every segment of each known peer AS: a bitmask of the
  // groups its segments fall in counts the AS once per group, and its
  // segments' orgs (almost always one) join the scratch list.
  for (std::uint32_t k = 0; k < v_.dir->by_peer_count; ++k) {
    unsigned groups = 0;
    for (const std::uint32_t i : pool_span(v_.by_peer[k].span)) {
      const snapv3::V3Segment& seg = v_.segments[i];
      if (seg.group != kSnapshotNoGroup) groups |= 1u << seg.group;
      if (seg.peer_org != 0 && (orgs.empty() || orgs.back() != seg.peer_org))
        orgs.push_back(seg.peer_org);
    }
    for (std::size_t g = 0; g < kPeeringGroupCount; ++g)
      if ((groups >> g & 1u) != 0) ++counts_.group_ases[g];
  }
  std::sort(orgs.begin(), orgs.end());
  counts_.peer_orgs = static_cast<std::size_t>(
      std::unique(orgs.begin(), orgs.end()) - orgs.begin());

  counts_.peer_ases = v_.dir->peer_asns.len;
  counts_.pinned_interfaces = v_.dir->pin_count;
  counts_.regional_only = v_.dir->regional_count;
}

SegmentFacts FabricView::segment(std::uint32_t index) const {
  const snapv3::V3Segment& seg = v_.segments[index];
  SegmentFacts facts;
  facts.abi = seg.abi;
  facts.cbi = seg.cbi;
  facts.peer_asn = seg.peer_asn;
  facts.peer_org = seg.peer_org;
  facts.confirmation = seg.confirmation;
  facts.group = seg.group;
  facts.ixp = (seg.flags & kSegIxp) != 0;
  facts.vpi = (seg.flags & kSegVpi) != 0;
  facts.confidence = seg.confidence;
  return facts;
}

Span32 FabricView::peer_segments(std::uint32_t peer_asn) const {
  const snapv3::V3KeySpan* first = v_.by_peer;
  const snapv3::V3KeySpan* last = first + v_.dir->by_peer_count;
  const auto it = std::lower_bound(
      first, last, peer_asn,
      [](const snapv3::V3KeySpan& e, std::uint32_t key) {
        return e.key < key;
      });
  if (it == last || it->key != peer_asn) return {};
  return pool_span(it->span);
}

Span32 FabricView::metro_interfaces(std::uint32_t metro) const {
  const snapv3::V3KeySpan* first = v_.by_metro;
  const snapv3::V3KeySpan* last = first + v_.dir->by_metro_count;
  const auto it = std::lower_bound(
      first, last, metro,
      [](const snapv3::V3KeySpan& e, std::uint32_t key) {
        return e.key < key;
      });
  if (it == last || it->key != metro) return {};
  return pool_span(it->span);
}

std::optional<BackendHit> FabricView::find(Ipv4 address) const {
  // Longest prefix first: per-length groups are sorted by network, so each
  // candidate length costs one binary search over its group.
  for (int plen = 32; plen >= 0; --plen) {
    const snapv3::V3Span group = v_.dir->trie_by_len[plen];
    if (group.len == 0) continue;
    const Prefix probe(address, static_cast<std::uint8_t>(plen));
    const std::uint32_t network = probe.network().value();
    const snapv3::V3TrieEntry* first = v_.trie + group.off;
    const snapv3::V3TrieEntry* last = first + group.len;
    const auto it = std::lower_bound(
        first, last, network,
        [](const snapv3::V3TrieEntry& e, std::uint32_t key) {
          return e.network < key;
        });
    if (it == last || it->network != network) continue;
    BackendHit hit;
    hit.prefix = probe;
    hit.is_interface = (it->flags & kTrieInterface) != 0;
    hit.abi = (it->flags & kTrieAbi) != 0;
    hit.cbi = (it->flags & kTrieCbi) != 0;
    hit.segments = pool_span(it->segments);
    return hit;
  }
  return std::nullopt;
}

std::vector<std::uint32_t> FabricView::min_confidence_list(
    double min_confidence) const {
  const auto kept = [&](std::uint32_t i) {
    return !(v_.segments[i].confidence < min_confidence);
  };
  // conf_order is descending, so the kept segments are its prefix: a binary
  // search sizes the result, and a scan in index order fills it ascending.
  const Span32 order = pool_span(v_.dir->conf_order);
  std::vector<std::uint32_t> out;
  out.reserve(static_cast<std::size_t>(
      std::partition_point(order.begin(), order.end(), kept) -
      order.begin()));
  const std::uint32_t total = v_.dir->segment_count;
  for (std::uint32_t i = 0; i < total; ++i)
    if (kept(i)) out.push_back(i);
  return out;
}

}  // namespace cloudmap
