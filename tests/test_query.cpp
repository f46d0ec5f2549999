// QueryEngine correctness (src/query/): every query kind cross-checked
// against a brute-force scan of the raw snapshot (tests/query_oracle.h),
// and the zero-locking claim exercised with concurrent readers (this file
// matches the CI TSan filter, so data races here fail the sanitize job).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "fixtures.h"
#include "query/diff.h"
#include "query/engine.h"
#include "query/fabric_index.h"
#include "query_oracle.h"

namespace cloudmap {
namespace {

using enum QueryKind;

const FabricIndex& shared_index() {
  static const FabricIndex* index =
      new FabricIndex(testfx::small_pipeline().run_snapshot());
  return *index;
}

const testfx::QueryOracle& oracle() {
  static const testfx::QueryOracle* oracle =
      new testfx::QueryOracle(testfx::small_pipeline().run_snapshot());
  return *oracle;
}

const std::vector<SnapshotSegment>& segments() {
  return oracle().snapshot().segments;
}

TEST(QueryEngine, EveryKindMatchesOracle) {
  const QueryEngine engine(shared_index());
  const std::vector<QueryRequest> requests =
      testfx::every_request(oracle().snapshot());
  std::size_t found = 0;
  for (const QueryRequest& request : requests) {
    const QueryResponse got = engine.execute(request);
    const QueryResponse want = oracle().execute(request);
    EXPECT_EQ(got.items, want.items) << testfx::describe(request);
    EXPECT_TRUE(testfx::same_response(got, want))
        << testfx::describe(request);
    if (got.found) ++found;
  }
  // The request set reaches both sides of every branch it targets.
  EXPECT_GT(requests.size(), 100u);
  EXPECT_GT(found, 0u);
}

TEST(QueryEngine, PeersOfMatchesBruteForce) {
  const FabricIndex& index = shared_index();
  const QueryEngine engine(index);
  ASSERT_FALSE(index.asn_list().empty());
  for (const std::uint32_t asn : index.asn_list()) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < segments().size(); ++i)
      if (segments()[i].peer_asn == Asn{asn}) expected.push_back(i);
    EXPECT_EQ(engine.execute({.kind = kPeersOf, .asn = asn}).items,
              expected)
        << "AS" << asn;
    EXPECT_FALSE(expected.empty()) << "asn_list() listed an absent AS";
  }
  EXPECT_TRUE(
      engine.execute({.kind = kPeersOf, .asn = 4294967295u}).items.empty());
}

TEST(QueryEngine, InterfacesInMatchesBruteForce) {
  const FabricIndex& index = shared_index();
  const QueryEngine engine(index);
  ASSERT_FALSE(index.metro_list().empty());
  for (const std::uint32_t metro : index.metro_list()) {
    std::vector<std::uint32_t> expected;
    for (const SnapshotPin& pin : oracle().snapshot().pins)
      if (pin.metro == metro) expected.push_back(pin.address);
    EXPECT_EQ(engine.execute({.kind = kInterfacesIn, .metro = metro}).items,
              expected)
        << "metro " << metro;
  }
  EXPECT_TRUE(engine.execute({.kind = kInterfacesIn, .metro = kInvalidIndex})
                  .items.empty());
}

TEST(QueryEngine, VpiCandidatesMatchBruteForce) {
  const QueryEngine engine(shared_index());
  std::vector<std::uint32_t> expected;
  for (std::uint32_t i = 0; i < segments().size(); ++i)
    if (segments()[i].vpi) expected.push_back(i);
  EXPECT_EQ(engine.execute({.kind = kVpiCandidates}).items, expected);
}

TEST(QueryEngine, LookupFindsEveryInterfaceExactly) {
  const QueryEngine engine(shared_index());
  for (std::uint32_t i = 0; i < segments().size(); ++i) {
    const SnapshotSegment& seg = segments()[i];
    for (const Ipv4 address : {seg.abi, seg.cbi}) {
      const QueryResponse hit =
          engine.execute({.kind = kLookup, .address = address.value()});
      ASSERT_TRUE(hit.found) << address.to_string();
      EXPECT_TRUE(hit.is_interface);
      EXPECT_EQ(hit.prefix_length, 32);
      EXPECT_EQ(hit.prefix_network, address.value());
      EXPECT_TRUE(std::find(hit.items.begin(), hit.items.end(), i) !=
                  hit.items.end());
      EXPECT_TRUE(address == seg.abi ? hit.role_abi : hit.role_cbi);
    }
  }
}

TEST(QueryEngine, LookupCoversDestinationCones) {
  const QueryEngine engine(shared_index());
  bool checked = false;
  for (std::uint32_t i = 0; i < segments().size(); ++i) {
    for (const std::uint32_t network : segments()[i].dest_slash24s) {
      // Probe a host inside the /24 that is not itself an interface.
      const Ipv4 probe(network | 0xFDu);
      const QueryResponse hit =
          engine.execute({.kind = kLookup, .address = probe.value()});
      ASSERT_TRUE(hit.found) << probe.to_string();
      if (hit.is_interface) continue;  // a /32 interface shadowed the cone
      EXPECT_EQ(hit.prefix_length, 24);
      EXPECT_TRUE(std::find(hit.items.begin(), hit.items.end(), i) !=
                  hit.items.end());
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
  EXPECT_FALSE(engine
                   .execute({.kind = kLookup,
                             .address = Ipv4(255, 255, 255, 254).value()})
                   .found);
}

TEST(QueryEngine, CountsMatchBruteForce) {
  const QueryEngine engine(shared_index());
  const QueryResponse response = engine.execute({.kind = kCounts});
  ASSERT_TRUE(response.counts.has_value());
  const FabricCounts& counts = *response.counts;
  const FabricCounts expected =
      *oracle().execute({.kind = kCounts}).counts;

  EXPECT_EQ(counts.segments, expected.segments);
  EXPECT_EQ(counts.unique_abis, expected.unique_abis);
  EXPECT_EQ(counts.unique_cbis, expected.unique_cbis);
  EXPECT_EQ(counts.peer_ases, expected.peer_ases);
  EXPECT_EQ(counts.peer_orgs, expected.peer_orgs);
  EXPECT_EQ(counts.by_confirmation, expected.by_confirmation);
  EXPECT_EQ(counts.ixp_segments, expected.ixp_segments);
  EXPECT_EQ(counts.vpi_cbis, expected.vpi_cbis);
  EXPECT_EQ(counts.group_segments, expected.group_segments);
  EXPECT_EQ(counts.group_ases, expected.group_ases);
  EXPECT_EQ(counts.unattributed_segments, expected.unattributed_segments);
  EXPECT_EQ(counts.pinned_interfaces, expected.pinned_interfaces);
  EXPECT_EQ(counts.regional_only, expected.regional_only);
  EXPECT_DOUBLE_EQ(counts.mean_confidence, expected.mean_confidence);
  EXPECT_EQ(counts.confident_segments, expected.confident_segments);
  EXPECT_EQ(counts.segments, segments().size());
  EXPECT_EQ(counts.pinned_interfaces, oracle().snapshot().pins.size());
  EXPECT_GT(counts.segments, 0u);
  EXPECT_GT(counts.peer_ases, 0u);
}

TEST(QueryEngine, MinConfidenceMatchesBruteForce) {
  MetricsRegistry registry(true);
  const QueryEngine engine(shared_index(), &registry);
  const auto at_least = [&engine](double threshold) {
    return engine
        .execute({.kind = kMinConfidence, .min_confidence = threshold})
        .items;
  };
  for (const double threshold : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < segments().size(); ++i)
      if (segments()[i].confidence >= threshold) expected.push_back(i);
    EXPECT_EQ(at_least(threshold), expected) << "threshold " << threshold;
  }
  // Thresholds only shrink the answer; <= 0 returns the whole fabric.
  EXPECT_EQ(at_least(0.0).size(), segments().size());
  EXPECT_GE(at_least(0.3).size(), at_least(0.6).size());
  // Every call above bumped the counter: 6 thresholds + 3 shape checks.
  EXPECT_EQ(registry.counter_value("query.min_confidence"), 9u);
}

// Thresholds at the edges of the score range, and at every score a segment
// actually carries (where a ">=" slipping to ">" would show).
TEST(QueryEngine, MinConfidenceAtEdgeThresholds) {
  const QueryEngine engine(shared_index());
  std::vector<double> thresholds = {
      std::numeric_limits<double>::quiet_NaN(), -0.0, -1.0,
      std::numeric_limits<double>::infinity(), 1.0};
  for (const SnapshotSegment& seg : segments())
    thresholds.push_back(seg.confidence);
  for (const double threshold : thresholds) {
    const QueryRequest request{.kind = kMinConfidence,
                               .min_confidence = threshold};
    EXPECT_EQ(engine.execute(request).items, oracle().execute(request).items)
        << "threshold " << threshold;
  }
  const auto at_least = [&engine](double threshold) {
    return engine
        .execute({.kind = kMinConfidence, .min_confidence = threshold})
        .items.size();
  };
  // NaN compares false against every score, so nothing is "below" it.
  EXPECT_EQ(at_least(std::numeric_limits<double>::quiet_NaN()),
            segments().size());
  EXPECT_EQ(at_least(-0.0), segments().size());
  EXPECT_EQ(at_least(-1.0), segments().size());
  EXPECT_EQ(at_least(std::numeric_limits<double>::infinity()), 0u);
}

// A fabric built so that each "unique" count has a trap: one ABI shared by
// three segments, a CBI in both a VPI and a non-VPI segment, an address
// that is a non-VPI segment's CBI and a VPI segment's ABI, one peer AS in
// two groups, and an unknown peer AS with a known org. Scores sit exactly
// on the thresholds the test asks for.
RunSnapshot counts_snapshot() {
  RunSnapshot s;
  const auto segment = [&s](Ipv4 abi, Ipv4 cbi, std::uint32_t asn,
                            std::uint32_t org, std::uint8_t group,
                            double confidence) -> SnapshotSegment& {
    SnapshotSegment seg;
    seg.abi = abi;
    seg.cbi = cbi;
    seg.peer_asn = Asn{asn};
    seg.peer_org = OrgId{org};
    seg.group = group;
    seg.confidence = confidence;
    return s.segments.emplace_back(seg);
  };
  segment(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 1, 1), 64500, 100, 0, 0.5).vpi =
      true;
  segment(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 1, 2), 64500, 100, 2, 0.25)
      .confirmation = Confirmation::kHybrid;
  segment(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 1, 3), 64501, 101, 0, 0.75)
      .confirmation = Confirmation::kHybrid;
  segment(Ipv4(10, 0, 0, 2), Ipv4(10, 0, 1, 1), 64501, 101, 0, 0.75)
      .confirmation = Confirmation::kReachability;
  SnapshotSegment& vpi_abi =
      segment(Ipv4(10, 0, 1, 2), Ipv4(10, 0, 2, 1), 0, 102,
              kSnapshotNoGroup, 1.0);
  vpi_abi.vpi = true;
  vpi_abi.confirmation = Confirmation::kAliasRelabel;
  SnapshotSegment& ixp =
      segment(Ipv4(10, 0, 0, 3), Ipv4(10, 0, 2, 2), 64502, 101, 5, 0.0);
  ixp.ixp = true;
  ixp.confirmation = Confirmation::kIxpClient;
  s.pins = {{0x0A000001u, 3, 0, 0, 0}, {0x0A000101u, 4, 0, 0, 1}};
  s.regional = {{0x0A000003u, 2}};
  return s;
}

QueryResponse counts_response(const FabricCounts& counts) {
  QueryResponse response;
  response.kind = kCounts;
  response.counts = counts;
  return response;
}

TEST(QueryEngine, CountsOnHandBuiltFabric) {
  const FabricIndex index(counts_snapshot());
  const QueryEngine engine(index);
  const FabricCounts counts = *engine.execute({.kind = kCounts}).counts;

  FabricCounts want;
  want.segments = 6;
  want.unique_abis = 4;  // .0.1 (three segments), .0.2, .1.2, .0.3
  want.unique_cbis = 5;  // .1.1 (two segments), .1.2, .1.3, .2.1, .2.2
  want.peer_ases = 3;    // 64500, 64501, 64502; the unknown AS is not one
  want.peer_orgs = 3;    // 100, 101, 102 (the unknown AS's org counts)
  want.by_confirmation = {1, 1, 2, 1, 1};
  want.ixp_segments = 1;
  // .1.1 (VPI in one segment, not in another) and .2.1; .1.2 is a CBI only
  // of a non-VPI segment, though a VPI segment uses it as its ABI.
  want.vpi_cbis = 2;
  want.group_segments = {3, 0, 1, 0, 0, 1};
  want.group_ases = {2, 0, 1, 0, 0, 1};  // 64500 in groups 0 and 2
  want.unattributed_segments = 1;
  want.pinned_interfaces = 2;
  want.regional_only = 1;
  want.mean_confidence = (0.5 + 0.25 + 0.75 + 0.75 + 1.0 + 0.0) / 6.0;
  want.confident_segments = 4;
  const testfx::QueryOracle oracle(counts_snapshot());
  EXPECT_TRUE(testfx::same_response(engine.execute({.kind = kCounts}),
                                    counts_response(want)));
  EXPECT_TRUE(testfx::same_response(engine.execute({.kind = kCounts}),
                                    oracle.execute({.kind = kCounts})));
  EXPECT_EQ(counts.group_ases, want.group_ases);
  EXPECT_EQ(counts.vpi_cbis, want.vpi_cbis);

  for (const QueryRequest& request :
       testfx::every_request(oracle.snapshot()))
    EXPECT_TRUE(testfx::same_response(engine.execute(request),
                                      oracle.execute(request)))
        << testfx::describe(request);
  for (const double threshold : {0.0, 0.25, 0.5, 0.75, 1.0})
    EXPECT_EQ(engine.execute({.kind = kMinConfidence,
                              .min_confidence = threshold})
                  .items,
              oracle.execute({.kind = kMinConfidence,
                              .min_confidence = threshold})
                  .items)
        << "threshold " << threshold;
}

TEST(QueryEngine, CountsOnEmptyFabric) {
  const FabricIndex index{RunSnapshot{}};
  const QueryEngine engine(index);
  const testfx::QueryOracle oracle{RunSnapshot{}};
  for (const QueryRequest& request :
       testfx::every_request(oracle.snapshot()))
    EXPECT_TRUE(testfx::same_response(engine.execute(request),
                                      oracle.execute(request)))
        << testfx::describe(request);
  EXPECT_TRUE(testfx::same_response(engine.execute({.kind = kCounts}),
                                    counts_response(FabricCounts{})));
}

TEST(QueryEngine, ConfidenceHistogramCoversEverySegment) {
  MetricsRegistry registry(true);
  const QueryEngine engine(shared_index(), &registry);
  const QueryResponse response =
      engine.execute({.kind = kConfidenceHistogram});
  ASSERT_TRUE(response.histogram.has_value());
  const ConfidenceHistogram& hist = *response.histogram;
  EXPECT_EQ(hist.segments, segments().size());
  std::size_t binned = 0;
  for (const std::size_t bin : hist.bins) binned += bin;
  EXPECT_EQ(binned, segments().size());
  double sum = 0.0, lo = 1.0, hi = 0.0;
  for (const SnapshotSegment& seg : segments()) {
    sum += seg.confidence;
    lo = std::min(lo, seg.confidence);
    hi = std::max(hi, seg.confidence);
  }
  ASSERT_FALSE(segments().empty());
  EXPECT_DOUBLE_EQ(hist.mean, sum / static_cast<double>(hist.segments));
  EXPECT_DOUBLE_EQ(hist.min, lo);
  EXPECT_DOUBLE_EQ(hist.max, hi);
  // The pipeline's fabric carries real (nonzero) confidence throughout.
  EXPECT_GT(hist.min, 0.0);
  EXPECT_LE(hist.max, 1.0);
  EXPECT_EQ(registry.counter_value("query.confidence_histogram"), 1u);

  // The counts aggregates agree with the histogram's moments.
  const FabricCounts counts = *engine.execute({.kind = kCounts}).counts;
  EXPECT_DOUBLE_EQ(counts.mean_confidence, hist.mean);
  std::size_t confident = 0;
  for (const SnapshotSegment& seg : segments())
    if (seg.confidence >= 0.5) ++confident;
  EXPECT_EQ(counts.confident_segments, confident);
}

// One reader's deterministic work slice: a digest over every query class.
// Bit-identical answers at any thread count means identical digests.
std::uint64_t query_digest(const QueryEngine& engine, std::size_t slice,
                           std::size_t slices) {
  const FabricBackend& backend = engine.backend();
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&digest](std::uint64_t value) {
    digest = (digest ^ value) * 1099511628211ull;
  };
  const Span32 asns = backend.asn_list();
  for (std::size_t a = slice; a < asns.size(); a += slices)
    for (const std::uint32_t seg :
         engine.execute({.kind = kPeersOf, .asn = asns[a]}).items)
      mix(seg);
  const Span32 metros = backend.metro_list();
  for (std::size_t m = slice; m < metros.size(); m += slices)
    for (const std::uint32_t addr :
         engine.execute({.kind = kInterfacesIn, .metro = metros[m]}).items)
      mix(addr);
  for (const std::uint32_t seg : engine.execute({.kind = kVpiCandidates}).items)
    mix(seg);
  for (std::size_t i = slice; i < backend.segment_count(); i += slices) {
    const std::uint32_t cbi =
        backend.segment(static_cast<std::uint32_t>(i)).cbi;
    const QueryResponse hit = engine.execute({.kind = kLookup, .address = cbi});
    mix(hit.items.size());
  }
  const FabricCounts counts = *engine.execute({.kind = kCounts}).counts;
  mix(counts.segments);
  mix(counts.peer_ases);
  mix(counts.vpi_cbis);
  return digest;
}

TEST(QueryEngine, ConcurrentReadersMatchSingleThread) {
  MetricsRegistry registry(true);
  const QueryEngine engine(shared_index(), &registry);
  constexpr std::size_t kSlices = 4;

  // Reference: every slice computed on one thread.
  std::vector<std::uint64_t> expected(kSlices);
  for (std::size_t s = 0; s < kSlices; ++s)
    expected[s] = query_digest(engine, s, kSlices);

  // Same slices, one thread each, sharing the engine with no locking.
  std::vector<std::uint64_t> got(kSlices);
  std::vector<std::thread> readers;
  for (std::size_t s = 0; s < kSlices; ++s)
    readers.emplace_back(
        [&, s] { got[s] = query_digest(engine, s, kSlices); });
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(got, expected);
  // The shared counters saw both passes (2× each query class).
  EXPECT_GT(registry.counter_value("query.lookups"), 0u);
  EXPECT_GT(registry.counter_value("query.counts"), 0u);
}

TEST(QueryEngine, DiffOfIdenticalSnapshotsIsEmpty) {
  const RunSnapshot& snap = testfx::small_pipeline().run_snapshot();
  const SnapshotDiff diff = diff_snapshots(snap, snap);
  EXPECT_TRUE(diff.identical());
  EXPECT_TRUE(diff.added.empty());
  EXPECT_TRUE(diff.removed.empty());
  EXPECT_TRUE(diff.reconfirmed.empty());
  EXPECT_TRUE(diff.repinned.empty());
  EXPECT_EQ(diff.common_segments, snap.segments.size());
}

TEST(QueryEngine, DiffReportsEachChangeClass) {
  RunSnapshot before = testfx::small_pipeline().run_snapshot();
  RunSnapshot after = before;
  ASSERT_GE(after.segments.size(), 2u);
  ASSERT_FALSE(after.pins.empty());

  // Remove one segment, re-confirm another, add a brand-new one, and move
  // one pin to a different metro.
  const SnapshotSegment removed = after.segments.back();
  after.segments.pop_back();
  const Confirmation old_conf = after.segments[0].confirmation;
  after.segments[0].confirmation = old_conf == Confirmation::kHybrid
                                       ? Confirmation::kReachability
                                       : Confirmation::kHybrid;
  SnapshotSegment added;
  added.abi = Ipv4(10, 99, 99, 1);
  added.cbi = Ipv4(10, 99, 99, 2);
  after.segments.push_back(added);
  after.pins[0].metro += 1;
  canonicalize(after);

  const SnapshotDiff diff = diff_snapshots(before, after);
  EXPECT_FALSE(diff.identical());
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0].abi, added.abi);
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0].cbi, removed.cbi);
  ASSERT_EQ(diff.reconfirmed.size(), 1u);
  EXPECT_EQ(diff.reconfirmed[0].before, old_conf);
  ASSERT_EQ(diff.repinned.size(), 1u);
  EXPECT_EQ(diff.repinned[0].metro_after, after.pins[0].metro);
}

}  // namespace
}  // namespace cloudmap
