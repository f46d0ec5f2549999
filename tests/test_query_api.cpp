// The unified request/response query API (query/request.h): execute()
// bumps exactly one metrics counter per call, honors min-confidence
// filtering and brief expansion, and turns malformed requests into
// kBadRequest instead of throwing. Answer correctness for every kind is
// checked against the brute-force oracle in test_query.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fixtures.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/fabric_index.h"
#include "query/request.h"

namespace cloudmap {
namespace {

const FabricIndex& shared_index() {
  static const FabricIndex* index =
      new FabricIndex(testfx::small_pipeline().run_snapshot());
  return *index;
}

std::uint64_t counter_value(const MetricsRegistry& registry,
                            const std::string& name) {
  for (const auto& [key, value] : registry.snapshot().counters)
    if (key == name) return value;
  return 0;
}

TEST(QueryApi, EveryCallBumpsItsOwnCounter) {
  MetricsRegistry registry(true);
  const QueryEngine engine(shared_index(), &registry);

  const struct {
    QueryKind kind;
    const char* name;
  } cases[] = {
      {QueryKind::kCounts, "query.counts"},
      {QueryKind::kPeersOf, "query.peers_of"},
      {QueryKind::kPeerList, "query.peer_list"},
      {QueryKind::kInterfacesIn, "query.interfaces_in"},
      {QueryKind::kVpiCandidates, "query.vpi_candidates"},
      {QueryKind::kLookup, "query.lookups"},
      {QueryKind::kMinConfidence, "query.min_confidence"},
      {QueryKind::kConfidenceHistogram, "query.confidence_histogram"},
  };
  // All eight counters exist before any query runs (artifact completeness).
  for (const auto& [kind, name] : cases)
    EXPECT_EQ(counter_value(registry, name), 0u) << name;
  for (const auto& [kind, name] : cases) {
    QueryRequest request;
    request.kind = kind;
    EXPECT_EQ(engine.execute(request).status, QueryStatus::kOk) << name;
    EXPECT_EQ(counter_value(registry, name), 1u) << name;
  }
  // Exactly one counter moved per call: eight calls, total eight.
  std::uint64_t total = 0;
  for (const auto& [kind, name] : cases)
    total += counter_value(registry, name);
  EXPECT_EQ(total, 8u);
}

TEST(QueryApi, MinConfidenceFiltersPeersOfAndVpiCandidates) {
  const FabricIndex& index = shared_index();
  const QueryEngine engine(index);

  QueryRequest request;
  request.kind = QueryKind::kVpiCandidates;
  const std::vector<std::uint32_t> unfiltered = engine.execute(request).items;
  request.min_confidence = 0.6;
  const QueryResponse filtered = engine.execute(request);
  std::vector<std::uint32_t> expected;
  for (const std::uint32_t i : unfiltered)
    if (index.segment(i).confidence >= 0.6) expected.push_back(i);
  EXPECT_EQ(filtered.items, expected);

  // The default threshold (-1) filters nothing.
  request.min_confidence = -1.0;
  EXPECT_EQ(engine.execute(request).items, unfiltered);

  ASSERT_FALSE(index.asn_list().empty());
  for (const std::uint32_t asn : index.asn_list()) {
    request = {};
    request.kind = QueryKind::kPeersOf;
    request.asn = asn;
    expected.clear();
    for (const std::uint32_t i : engine.execute(request).items)
      if (index.segment(i).confidence >= 0.6) expected.push_back(i);
    request.min_confidence = 0.6;
    EXPECT_EQ(engine.execute(request).items, expected) << "AS" << asn;
  }
}

TEST(QueryApi, WantBriefsExpandsSegmentIndexResults) {
  const FabricIndex& index = shared_index();
  const QueryEngine engine(index);

  QueryRequest request;
  request.kind = QueryKind::kVpiCandidates;
  request.want_briefs = true;
  const QueryResponse response = engine.execute(request);
  ASSERT_EQ(response.briefs.size(), response.items.size());
  for (std::size_t i = 0; i < response.items.size(); ++i) {
    const SegmentBrief& brief = response.briefs[i];
    const SegmentFacts facts = index.segment(response.items[i]);
    EXPECT_EQ(brief.index, response.items[i]);
    EXPECT_EQ(brief.abi, facts.abi);
    EXPECT_EQ(brief.cbi, facts.cbi);
    EXPECT_EQ(brief.peer_asn, facts.peer_asn);
    EXPECT_EQ(brief.confirmation, facts.confirmation);
    EXPECT_EQ(brief.ixp, facts.ixp);
    EXPECT_EQ(brief.vpi, facts.vpi);
    EXPECT_DOUBLE_EQ(brief.confidence, facts.confidence);
  }

  // Briefs are opt-in; address/ASN lists never carry them.
  request.want_briefs = false;
  EXPECT_TRUE(engine.execute(request).briefs.empty());
  request = {};
  request.kind = QueryKind::kPeerList;
  request.want_briefs = true;
  EXPECT_TRUE(engine.execute(request).briefs.empty());
}

TEST(QueryApi, MalformedRequestsComeBackAsBadRequest) {
  const QueryEngine engine(shared_index());
  QueryRequest request;
  request.kind = static_cast<QueryKind>(200);
  const QueryResponse response = engine.execute(request);
  EXPECT_EQ(response.status, QueryStatus::kBadRequest);
  EXPECT_FALSE(response.error.empty());
  EXPECT_TRUE(response.items.empty());

  request.kind = static_cast<QueryKind>(kQueryKindCount);
  EXPECT_EQ(engine.execute(request).status, QueryStatus::kBadRequest);
}

}  // namespace
}  // namespace cloudmap
