// Binary snapshot codec (io/snapshot.h): round trips, byte-determinism,
// and the corruption contract — a damaged file is rejected with a
// diagnostic, never a crash or a silent partial load.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fixtures.h"
#include "io/snapshot.h"
#include "io/snapshot_v3.h"
#include "query/snapshot.h"

namespace cloudmap {
namespace {

// A small snapshot exercising every section and optional field, built in
// deliberately non-canonical order so the tests also cover canonicalize().
RunSnapshot sample_snapshot() {
  RunSnapshot snap;
  snap.seed = 424242;
  snap.threads = 3;
  snap.subject = 0;  // kAmazon

  SnapshotSegment b;
  b.abi = Ipv4(10, 0, 0, 2);
  b.cbi = Ipv4(203, 0, 113, 9);
  b.prior_abi = Ipv4(10, 0, 0, 1);
  b.post_cbi = Ipv4(203, 0, 113, 10);
  b.first_round = 2;
  b.confirmation = Confirmation::kReachability;
  b.shifted = true;
  b.ixp = true;
  b.peer_asn = Asn{64512};
  b.peer_org = OrgId{7};
  b.group = 1;
  b.regions = {5, 1, 3};            // descending on purpose
  b.dest_slash24s = {0xCB007100u, 0xC0000200u};
  b.observations = 7;
  b.rounds_mask = 0b11;
  b.hop_density = 0.875;
  b.confidence = 0.625;

  SnapshotSegment a;
  a.abi = Ipv4(10, 0, 0, 1);
  a.cbi = Ipv4(198, 51, 100, 4);
  a.confirmation = Confirmation::kIxpClient;
  a.vpi = true;
  a.owner_hint = Asn{64500};
  a.observations = 1;
  a.rounds_mask = 0b01;
  a.hop_density = 1.0;
  a.confidence = 0.75;

  snap.segments = {b, a};  // reversed vs canonical (ABI, CBI) order

  snap.pins.push_back({0xCB007109u, 4, 1, 2, 1});
  snap.pins.push_back({0x0A000001u, 2, 0, 1, 0});
  snap.regional = {{0xC6336404u, 9}};
  snap.alias_sets = {{0xCB007109u, 0x0A000002u}};

  StageReport report;
  report.id = StageId::kRound1;
  report.threads = 3;
  report.workers = 2;
  report.wall_ms = 12.5;
  report.targets = 100;
  report.traceroutes = 99;
  report.probes = 1234;
  report.bgp_cache_hits = 7;
  report.bgp_cache_misses = 2;
  report.retries = 11;
  report.backoff_waits = 11;
  report.backoff_ticks = 704;
  report.recovered_targets = 5;
  report.worker_utilization = 0.75;
  report.tallies = {{"left_cloud", 42.0}};
  snap.stage_reports = {report};
  return snap;
}

std::string save_to_string(const RunSnapshot& snap) {
  std::ostringstream out;
  save_snapshot(out, snap);
  return out.str();
}

TEST(SnapshotIo, HandBuiltRoundTrip) {
  const RunSnapshot original = sample_snapshot();
  const std::string bytes = save_to_string(original);

  std::istringstream in(bytes);
  std::string error;
  const auto loaded = load_snapshot(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  EXPECT_EQ(loaded->seed, 424242u);
  EXPECT_EQ(loaded->threads, 3);
  EXPECT_EQ(loaded->subject, 0);
  ASSERT_EQ(loaded->segments.size(), 2u);
  // Canonical order: ascending (ABI, CBI), so segment `a` comes first.
  EXPECT_EQ(loaded->segments[0].cbi, Ipv4(198, 51, 100, 4));
  EXPECT_TRUE(loaded->segments[0].vpi);
  EXPECT_EQ(loaded->segments[0].owner_hint, Asn{64500});
  const SnapshotSegment& seg = loaded->segments[1];
  EXPECT_EQ(seg.abi, Ipv4(10, 0, 0, 2));
  EXPECT_EQ(seg.prior_abi, Ipv4(10, 0, 0, 1));
  EXPECT_EQ(seg.post_cbi, Ipv4(203, 0, 113, 10));
  EXPECT_EQ(seg.first_round, 2);
  EXPECT_EQ(seg.confirmation, Confirmation::kReachability);
  EXPECT_TRUE(seg.shifted);
  EXPECT_TRUE(seg.ixp);
  EXPECT_FALSE(seg.vpi);
  EXPECT_EQ(seg.peer_asn, Asn{64512});
  EXPECT_EQ(seg.peer_org, OrgId{7});
  EXPECT_EQ(seg.group, 1);
  EXPECT_EQ(seg.regions, (std::vector<std::uint32_t>{1, 3, 5}));
  // v2 confidence section round-trips bit for bit.
  EXPECT_EQ(loaded->segments[0].observations, 1u);
  EXPECT_EQ(loaded->segments[0].rounds_mask, 0b01u);
  EXPECT_DOUBLE_EQ(loaded->segments[0].hop_density, 1.0);
  EXPECT_DOUBLE_EQ(loaded->segments[0].confidence, 0.75);
  EXPECT_EQ(seg.observations, 7u);
  EXPECT_EQ(seg.rounds_mask, 0b11u);
  EXPECT_DOUBLE_EQ(seg.hop_density, 0.875);
  EXPECT_DOUBLE_EQ(seg.confidence, 0.625);
  ASSERT_EQ(loaded->pins.size(), 2u);
  EXPECT_EQ(loaded->pins[0].address, 0x0A000001u);  // sorted by address
  EXPECT_EQ(loaded->pins[1].metro, 4u);
  EXPECT_EQ(loaded->pins[1].rule, 1);
  EXPECT_EQ(loaded->pins[1].anchor_source, 2);
  ASSERT_EQ(loaded->regional.size(), 1u);
  EXPECT_EQ(loaded->regional[0].second, 9u);
  ASSERT_EQ(loaded->alias_sets.size(), 1u);
  EXPECT_EQ(loaded->alias_sets[0],
            (std::vector<std::uint32_t>{0x0A000002u, 0xCB007109u}));
  ASSERT_EQ(loaded->stage_reports.size(), 1u);
  EXPECT_EQ(loaded->stage_reports[0].id, StageId::kRound1);
  EXPECT_DOUBLE_EQ(loaded->stage_reports[0].wall_ms, 12.5);
  EXPECT_DOUBLE_EQ(loaded->stage_reports[0].worker_utilization, 0.75);
  ASSERT_EQ(loaded->stage_reports[0].tallies.size(), 1u);
  EXPECT_EQ(loaded->stage_reports[0].tallies[0].first, "left_cloud");
  EXPECT_EQ(loaded->stage_reports[0].retries, 11u);
  EXPECT_EQ(loaded->stage_reports[0].backoff_ticks, 704u);
  EXPECT_EQ(loaded->stage_reports[0].recovered_targets, 5u);
}

TEST(SnapshotIo, LegacyV1SaveLoadsWithZeroConfidence) {
  // A v1 file (5 sections, no confidence, no retry fields in stage metrics;
  // the committed bytes of the removed v1 writer) loads with the v2 fields
  // defaulted to zero.
  const std::string bytes = testfx::corpus_bytes("snapshot/v1.snap");
  EXPECT_EQ(bytes[6], 1);  // header carries version 1
  std::istringstream in(bytes);
  std::string error;
  const auto loaded = load_snapshot(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->segments.size(), 2u);
  for (const SnapshotSegment& seg : loaded->segments) {
    EXPECT_EQ(seg.observations, 0u);
    EXPECT_EQ(seg.rounds_mask, 0u);
    EXPECT_DOUBLE_EQ(seg.hop_density, 0.0);
    EXPECT_DOUBLE_EQ(seg.confidence, 0.0);
  }
  ASSERT_EQ(loaded->stage_reports.size(), 1u);
  EXPECT_EQ(loaded->stage_reports[0].retries, 0u);
  EXPECT_EQ(loaded->stage_reports[0].backoff_ticks, 0u);
  // Resaving a legacy file upgrades it to the current flat format.
  const std::string resaved = save_to_string(*loaded);
  EXPECT_EQ(resaved[6], 3);
}

TEST(SnapshotIo, LegacyCorpusFilesLoadToTheSampleSnapshot) {
  // Pins the frozen v1/v2 files to what the removed writer made of
  // sample_snapshot(): v2 carries every field, v1 all but the confidence
  // fields and the retry counters. The flat encoding stores every field in
  // the order given, so equal blobs mean equal, canonically ordered
  // snapshots.
  RunSnapshot v2 = sample_snapshot();
  canonicalize(v2);
  RunSnapshot v1 = v2;
  for (SnapshotSegment& seg : v1.segments) {
    seg.observations = 0;
    seg.rounds_mask = 0;
    seg.hop_density = 0.0;
    seg.confidence = 0.0;
  }
  for (StageReport& report : v1.stage_reports)
    report.retries = report.backoff_waits = report.backoff_ticks =
        report.recovered_targets = 0;
  const std::pair<const char*, const RunSnapshot*> cases[] = {
      {"snapshot/v1.snap", &v1}, {"snapshot/v2.snap", &v2}};
  for (const auto& [name, want] : cases) {
    std::istringstream in(testfx::corpus_bytes(name));
    std::string error;
    const auto loaded = load_snapshot(in, &error);
    ASSERT_TRUE(loaded.has_value()) << name << ": " << error;
    EXPECT_EQ(loaded->seed, want->seed) << name;
    EXPECT_EQ(loaded->threads, want->threads) << name;
    EXPECT_EQ(loaded->subject, want->subject) << name;
    EXPECT_TRUE(loaded->hazard_profile.empty()) << name;
    EXPECT_TRUE(loaded->hazard_metrics.empty()) << name;
    EXPECT_EQ(snapv3::encode_flat_fabric(*loaded),
              snapv3::encode_flat_fabric(*want))
        << name;
  }
}

TEST(SnapshotIo, RejectsConfidenceOutOfRangeWithValidCrc) {
  // Corrupt the first confidence score to 2.0 and fix up the section CRC,
  // so only the domain check can catch it. The confidence section only
  // exists in the v2 layout (v3 carries confidence inside the flat blob, a
  // case test_snapshot_v3.cpp covers), so start from the committed v2 file.
  const std::string good = testfx::corpus_bytes("snapshot/v2.snap");
  std::size_t conf_offset = 0, conf_size = 0, crc_pos = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t base = 12 + i * 24;
    std::uint32_t id = 0;
    std::memcpy(&id, good.data() + base, 4);
    if (id != 6) continue;
    std::uint64_t off = 0, size = 0;
    std::memcpy(&off, good.data() + base + 4, 8);
    std::memcpy(&size, good.data() + base + 12, 8);
    conf_offset = static_cast<std::size_t>(off);
    conf_size = static_cast<std::size_t>(size);
    crc_pos = base + 20;
  }
  ASSERT_GT(conf_size, 0u);
  std::string bytes = good;
  // Payload: u32 count, then {u32 obs, u32 rounds_mask, f64 density,
  // f64 confidence} per segment — first score at +4+4+4+8.
  const double bad_score = 2.0;
  std::memcpy(bytes.data() + conf_offset + 20, &bad_score, 8);
  const std::uint32_t crc = snapshot_crc32(
      reinterpret_cast<const unsigned char*>(bytes.data()) + conf_offset,
      conf_size);
  std::memcpy(bytes.data() + crc_pos, &crc, 4);
  std::istringstream in(bytes);
  std::string error;
  EXPECT_FALSE(load_snapshot(in, &error).has_value());
  EXPECT_NE(error.find("section 6"), std::string::npos) << error;
}

// The textbook byte-at-a-time CRC-32, kept here only as the reference the
// library's word-at-a-time version must agree with.
std::uint32_t bytewise_crc32(const unsigned char* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(SnapshotIo, Crc32KnownAnswer) {
  const char check[] = "123456789";
  EXPECT_EQ(snapshot_crc32(reinterpret_cast<const unsigned char*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(snapshot_crc32(nullptr, 0), 0u);
}

TEST(SnapshotIo, Crc32MatchesBytewiseAtEveryLengthAndOffset) {
  std::vector<unsigned char> bytes(64 + 8 + 4096);
  std::uint32_t state = 12345;
  for (unsigned char& b : bytes) {
    state = state * 1103515245u + 12345u;
    b = static_cast<unsigned char>(state >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t length = 0; length <= 64; ++length)
      EXPECT_EQ(snapshot_crc32(bytes.data() + offset, length),
                bytewise_crc32(bytes.data() + offset, length))
          << "offset " << offset << " length " << length;
  // A long run, with a tail that is not a whole number of words.
  EXPECT_EQ(snapshot_crc32(bytes.data() + 3, bytes.size() - 3),
            bytewise_crc32(bytes.data() + 3, bytes.size() - 3));
}

TEST(SnapshotIo, SaveLoadSaveIsByteIdentical) {
  const std::string first = save_to_string(sample_snapshot());
  std::istringstream in(first);
  const auto loaded = load_snapshot(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(save_to_string(*loaded), first);
}

TEST(SnapshotIo, EmptySnapshotRoundTrips) {
  const std::string bytes = save_to_string(RunSnapshot{});
  std::istringstream in(bytes);
  std::string error;
  const auto loaded = load_snapshot(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->segments.empty());
  EXPECT_EQ(save_to_string(*loaded), bytes);
}

TEST(SnapshotIo, PipelineSnapshotRoundTrips) {
  const RunSnapshot& snap = testfx::small_pipeline().run_snapshot();
  ASSERT_FALSE(snap.segments.empty());
  ASSERT_FALSE(snap.stage_reports.empty());
  const std::string first = save_to_string(snap);
  std::istringstream in(first);
  std::string error;
  const auto loaded = load_snapshot(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->segments.size(), snap.segments.size());
  EXPECT_EQ(loaded->pins.size(), snap.pins.size());
  EXPECT_EQ(loaded->alias_sets.size(), snap.alias_sets.size());
  EXPECT_EQ(loaded->stage_reports.size(), snap.stage_reports.size());
  EXPECT_EQ(save_to_string(*loaded), first);
}

// --- corruption contract ---------------------------------------------------

std::optional<RunSnapshot> load_bytes(std::string bytes, std::string* error) {
  std::istringstream in(std::move(bytes));
  return load_snapshot(in, error);
}

TEST(SnapshotIo, RejectsBadMagic) {
  std::string bytes = save_to_string(sample_snapshot());
  bytes[0] = 'X';
  std::string error;
  EXPECT_FALSE(load_bytes(bytes, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(SnapshotIo, RejectsUnknownVersion) {
  std::string bytes = save_to_string(sample_snapshot());
  bytes[6] = static_cast<char>(kSnapshotFormatVersion + 1);
  std::string error;
  EXPECT_FALSE(load_bytes(bytes, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(SnapshotIo, CrcCatchesEveryPayloadByteFlip) {
  const std::string good = save_to_string(sample_snapshot());
  // Payloads start after the header and the section table; read the section
  // count from the file so the sweep covers every payload byte regardless
  // of which format version the writer emits.
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, good.data() + 8, 4);
  const std::size_t payload_start = 12 + section_count * std::size_t{24};
  ASSERT_LT(payload_start, good.size());
  // Flip one bit of every payload byte in turn: each must be caught by the
  // section CRC (or a downstream range check), never crash, never load.
  for (std::size_t i = payload_start; i < good.size(); ++i) {
    std::string bytes = good;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
    std::string error;
    EXPECT_FALSE(load_bytes(bytes, &error).has_value())
        << "flip at byte " << i << " was accepted";
    EXPECT_FALSE(error.empty());
  }
}

TEST(SnapshotIo, RejectsTruncationAtEveryLength) {
  const std::string good = save_to_string(sample_snapshot());
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::string error;
    EXPECT_FALSE(load_bytes(good.substr(0, len), &error).has_value())
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(SnapshotIo, RejectsTrailingGarbage) {
  std::string bytes = save_to_string(sample_snapshot());
  bytes += "extra";
  std::string error;
  EXPECT_FALSE(load_bytes(bytes, &error).has_value());
}

TEST(SnapshotIo, RejectsOutOfRangeEnumWithValidCrc) {
  // Corrupt a field *and* fix up the section CRC so only the range check
  // can catch it: confirmation byte of the first segment record. The
  // byte-addressed segment section is v1/v2 only, so start from the
  // committed v2 file (v3 enum checks are exercised in
  // test_snapshot_v3.cpp).
  const std::string good = testfx::corpus_bytes("snapshot/v2.snap");
  // Find the segments section (id 2) in the table to locate its payload.
  const auto entry_at = [&](std::size_t i) {
    return 12 + i * 24;  // header is 12 bytes, entries 24
  };
  std::size_t seg_offset = 0, seg_size = 0, crc_pos = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t base = entry_at(i);
    std::uint32_t id = 0;
    std::memcpy(&id, good.data() + base, 4);
    if (id != 2) continue;
    std::uint64_t off = 0, size = 0;
    std::memcpy(&off, good.data() + base + 4, 8);
    std::memcpy(&size, good.data() + base + 12, 8);
    seg_offset = static_cast<std::size_t>(off);
    seg_size = static_cast<std::size_t>(size);
    crc_pos = base + 20;
  }
  ASSERT_GT(seg_size, 0u);
  std::string bytes = good;
  // Segment payload: u32 count, then the record; confirmation follows
  // 4×u32 addresses + i32 first_round.
  const std::size_t confirmation_pos = seg_offset + 4 + 16 + 4;
  bytes[confirmation_pos] = 9;  // Confirmation only goes to 4
  const std::uint32_t crc = snapshot_crc32(
      reinterpret_cast<const unsigned char*>(bytes.data()) + seg_offset,
      seg_size);
  std::memcpy(bytes.data() + crc_pos, &crc, 4);
  std::string error;
  EXPECT_FALSE(load_bytes(bytes, &error).has_value());
  EXPECT_NE(error.find("section 2"), std::string::npos) << error;
}

TEST(SnapshotIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "cloudmap_snapshot_test.snap";
  ASSERT_TRUE(save_snapshot_file(path, sample_snapshot()));
  std::string error;
  const auto loaded = load_snapshot_file(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->segments.size(), 2u);
  EXPECT_FALSE(load_snapshot_file(path + ".missing", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace cloudmap
