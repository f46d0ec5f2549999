// The reference the query layer is tested against: every QueryKind answered
// by a brute-force scan of a canonical RunSnapshot, sharing no code with
// the flat-fabric encoder or FabricView. QueryOracle::execute() returns the
// QueryResponse QueryEngine::execute() must produce, field for field, so a
// test compares the two through serve::encode_query_response() and checks
// every payload (items, briefs, counts, histogram, lookup fields) at once.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "query/request.h"
#include "query/snapshot.h"
#include "serve/protocol.h"

namespace cloudmap::testfx {

class QueryOracle {
 public:
  explicit QueryOracle(RunSnapshot snapshot) : snap_(std::move(snapshot)) {
    canonicalize(snap_);
  }

  const RunSnapshot& snapshot() const { return snap_; }

  // Requests must carry a valid kind (malformed ones are tested apart).
  QueryResponse execute(const QueryRequest& request) const {
    QueryResponse out;
    out.kind = request.kind;
    const auto segment_count =
        static_cast<std::uint32_t>(snap_.segments.size());
    bool segment_items = false;
    switch (request.kind) {
      case QueryKind::kCounts:
        out.counts = counts();
        return out;
      case QueryKind::kPeersOf:
        for (std::uint32_t i = 0; i < segment_count; ++i)
          if (request.asn != 0 &&
              snap_.segments[i].peer_asn.value == request.asn)
            out.items.push_back(i);
        segment_items = true;
        break;
      case QueryKind::kPeerList: {
        std::set<std::uint32_t> asns;
        for (const SnapshotSegment& seg : snap_.segments)
          if (!seg.peer_asn.is_unknown()) asns.insert(seg.peer_asn.value);
        out.items.assign(asns.begin(), asns.end());
        return out;
      }
      case QueryKind::kInterfacesIn:
        for (const SnapshotPin& pin : snap_.pins)
          if (pin.metro == request.metro) out.items.push_back(pin.address);
        return out;
      case QueryKind::kVpiCandidates:
        for (std::uint32_t i = 0; i < segment_count; ++i)
          if (snap_.segments[i].vpi) out.items.push_back(i);
        segment_items = true;
        break;
      case QueryKind::kLookup:
        lookup(request.address, out);
        if (request.want_briefs) add_briefs(out);
        return out;
      case QueryKind::kMinConfidence:
        // "Not below the threshold": a NaN threshold excludes nothing.
        for (std::uint32_t i = 0; i < segment_count; ++i)
          if (!(snap_.segments[i].confidence <
                std::max(request.min_confidence, 0.0)))
            out.items.push_back(i);
        if (request.want_briefs) add_briefs(out);
        return out;
      case QueryKind::kConfidenceHistogram:
        out.histogram = histogram();
        return out;
    }
    if (segment_items) {
      if (request.min_confidence >= 0.0)
        std::erase_if(out.items, [&](std::uint32_t i) {
          return snap_.segments[i].confidence < request.min_confidence;
        });
      if (request.want_briefs) add_briefs(out);
    }
    return out;
  }

 private:
  // A /32 hit on any segment's ABI or CBI wins; otherwise the /24 cone of
  // every segment whose destinations include the address's /24.
  void lookup(std::uint32_t address, QueryResponse& out) const {
    const auto segment_count =
        static_cast<std::uint32_t>(snap_.segments.size());
    for (std::uint32_t i = 0; i < segment_count; ++i) {
      const SnapshotSegment& seg = snap_.segments[i];
      const bool abi = seg.abi.value() == address;
      const bool cbi = seg.cbi.value() == address;
      if (!abi && !cbi) continue;
      out.role_abi = out.role_abi || abi;
      out.role_cbi = out.role_cbi || cbi;
      out.items.push_back(i);
    }
    if (!out.items.empty()) {
      out.found = true;
      out.is_interface = true;
      out.prefix_network = address;
      out.prefix_length = 32;
      return;
    }
    const std::uint32_t network = address & 0xFFFFFF00u;
    for (std::uint32_t i = 0; i < segment_count; ++i)
      for (const std::uint32_t dest : snap_.segments[i].dest_slash24s)
        if ((dest & 0xFFFFFF00u) == network &&
            (out.items.empty() || out.items.back() != i))
          out.items.push_back(i);
    if (!out.items.empty()) {
      out.found = true;
      out.prefix_network = network;
      out.prefix_length = 24;
    }
  }

  FabricCounts counts() const {
    FabricCounts counts;
    std::set<std::uint32_t> abis, cbis, ases, orgs, vpi_cbis;
    std::array<std::set<std::uint32_t>, kPeeringGroupCount> group_ases;
    double confidence_sum = 0.0;
    for (const SnapshotSegment& seg : snap_.segments) {
      ++counts.segments;
      confidence_sum += seg.confidence;
      if (seg.confidence >= 0.5) ++counts.confident_segments;
      abis.insert(seg.abi.value());
      cbis.insert(seg.cbi.value());
      if (!seg.peer_asn.is_unknown()) ases.insert(seg.peer_asn.value);
      if (!seg.peer_org.is_unknown()) orgs.insert(seg.peer_org.value);
      ++counts.by_confirmation[static_cast<std::size_t>(seg.confirmation)];
      if (seg.ixp) ++counts.ixp_segments;
      if (seg.vpi) vpi_cbis.insert(seg.cbi.value());
      if (seg.group == kSnapshotNoGroup) {
        ++counts.unattributed_segments;
      } else {
        ++counts.group_segments[seg.group];
        if (!seg.peer_asn.is_unknown())
          group_ases[seg.group].insert(seg.peer_asn.value);
      }
    }
    counts.unique_abis = abis.size();
    counts.unique_cbis = cbis.size();
    counts.peer_ases = ases.size();
    counts.peer_orgs = orgs.size();
    counts.vpi_cbis = vpi_cbis.size();
    for (std::size_t g = 0; g < kPeeringGroupCount; ++g)
      counts.group_ases[g] = group_ases[g].size();
    counts.pinned_interfaces = snap_.pins.size();
    counts.regional_only = snap_.regional.size();
    if (counts.segments > 0)
      counts.mean_confidence =
          confidence_sum / static_cast<double>(counts.segments);
    return counts;
  }

  ConfidenceHistogram histogram() const {
    ConfidenceHistogram hist;
    hist.segments = snap_.segments.size();
    if (snap_.segments.empty()) return hist;
    double sum = 0.0;
    hist.min = 1.0;
    hist.max = 0.0;
    for (const SnapshotSegment& seg : snap_.segments) {
      sum += seg.confidence;
      hist.min = std::min(hist.min, seg.confidence);
      hist.max = std::max(hist.max, seg.confidence);
      ++hist.bins[std::min<std::size_t>(
          static_cast<std::size_t>(seg.confidence * 10.0), 9)];
    }
    hist.mean = sum / static_cast<double>(hist.segments);
    return hist;
  }

  void add_briefs(QueryResponse& out) const {
    for (const std::uint32_t i : out.items) {
      const SnapshotSegment& seg = snap_.segments[i];
      SegmentBrief brief;
      brief.index = i;
      brief.abi = seg.abi.value();
      brief.cbi = seg.cbi.value();
      brief.peer_asn = seg.peer_asn.value;
      brief.confirmation = static_cast<std::uint8_t>(seg.confirmation);
      brief.ixp = seg.ixp;
      brief.vpi = seg.vpi;
      brief.confidence = seg.confidence;
      out.briefs.push_back(brief);
    }
  }

  RunSnapshot snap_;
};

// A request set that reaches every QueryKind and every branch of it: each
// peer and metro plus absent ones, every interface address, a host inside
// every destination /24, misses, and thresholds on every filtering kind
// (the edge values -0.0, +inf and NaN included) — each request once plain
// and once with briefs.
inline std::vector<QueryRequest> every_request(const RunSnapshot& snapshot) {
  std::vector<QueryRequest> out;
  const auto add = [&out](QueryRequest request) {
    out.push_back(request);
    request.want_briefs = true;
    out.push_back(request);
  };
  using limits = std::numeric_limits<double>;
  const double thresholds[] = {-1.0, -0.0, 0.0, 0.25, 0.5, 0.6, 0.9, 1.0,
                               limits::infinity(), limits::quiet_NaN()};
  for (const QueryKind kind :
       {QueryKind::kCounts, QueryKind::kPeerList,
        QueryKind::kConfidenceHistogram}) {
    QueryRequest request;
    request.kind = kind;
    add(request);
  }
  std::set<std::uint32_t> asns = {0, 4294967295u};
  std::set<std::uint32_t> metros = {kInvalidIndex};
  std::set<std::uint32_t> addresses = {0, 0xFFFFFFFEu, 0xCB007109u};
  for (const SnapshotSegment& seg : snapshot.segments) {
    asns.insert(seg.peer_asn.value);
    addresses.insert(seg.abi.value());
    addresses.insert(seg.cbi.value());
    for (const std::uint32_t dest : seg.dest_slash24s)
      addresses.insert((dest & 0xFFFFFF00u) | 0xFDu);
  }
  for (const SnapshotPin& pin : snapshot.pins) metros.insert(pin.metro);
  for (const double threshold : thresholds) {
    QueryRequest request;
    request.min_confidence = threshold;
    request.kind = QueryKind::kMinConfidence;
    add(request);
    request.kind = QueryKind::kVpiCandidates;
    add(request);
    request.kind = QueryKind::kPeersOf;
    for (const std::uint32_t asn : asns) {
      request.asn = asn;
      add(request);
    }
  }
  for (const std::uint32_t metro : metros) {
    QueryRequest request;
    request.kind = QueryKind::kInterfacesIn;
    request.metro = metro;
    add(request);
  }
  for (const std::uint32_t address : addresses) {
    QueryRequest request;
    request.kind = QueryKind::kLookup;
    request.address = address;
    add(request);
  }
  return out;
}

// One line naming a request, for failure messages.
inline std::string describe(const QueryRequest& request) {
  return "kind " + std::to_string(static_cast<int>(request.kind)) + " asn " +
         std::to_string(request.asn) + " metro " +
         std::to_string(request.metro) + " address " +
         std::to_string(request.address) + " min " +
         std::to_string(request.min_confidence) +
         (request.want_briefs ? " briefs" : "");
}

// Whether two responses are equal in every field the wire carries.
inline bool same_response(const QueryResponse& a, const QueryResponse& b) {
  return serve::encode_query_response(a) == serve::encode_query_response(b);
}

}  // namespace cloudmap::testfx
