// Format-v3 snapshot hardening: the flat blob round-trips byte-identically
// through save/load/save, the zero-copy loader (io/mapped_snapshot.h)
// rejects truncation, byte flips, and pre-v3 files, a FabricIndex encodes
// the very blob a v3 save writes, and a FabricView over the mapping answers
// every query as the brute-force oracle (query_oracle.h) does — without
// copying a byte out of the file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fixtures.h"
#include "io/mapped_snapshot.h"
#include "io/snapshot.h"
#include "io/snapshot_v3.h"
#include "query/engine.h"
#include "query/fabric_index.h"
#include "query/fabric_view.h"
#include "query_oracle.h"

namespace cloudmap {
namespace {

const RunSnapshot& shared_snapshot() {
  return testfx::small_pipeline().run_snapshot();
}

std::string v3_bytes() {
  std::ostringstream out;
  save_snapshot(out, shared_snapshot());
  return out.str();
}

// Writes `bytes` to a fresh temp file and returns its path.
std::string write_temp(const std::string& bytes, const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(SnapshotV3, SaveLoadSaveIsByteIdentical) {
  const std::string first = v3_bytes();
  std::istringstream in(first);
  std::string error;
  const auto reloaded = load_snapshot(in, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  std::ostringstream out;
  save_snapshot(out, *reloaded);
  EXPECT_EQ(first, out.str());
}

TEST(SnapshotV3, DefaultSaveIsVersion3WithFlatSection) {
  const std::string bytes = v3_bytes();
  ASSERT_GT(bytes.size(), 80u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[6]), 3u);  // version field
  // The flat blob starts at file offset 80 with the "CMF3" magic.
  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data() + 80, sizeof(magic));
  EXPECT_EQ(magic, snapv3::kFlatFabricMagic);
}

TEST(SnapshotV3, MappedOpenExposesMetaAndValidBlob) {
  const std::string path = write_temp(v3_bytes(), "v3_meta.snap");
  std::string error;
  const auto mapped = MappedSnapshot::open(path, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  EXPECT_EQ(mapped->seed(), shared_snapshot().seed);
  EXPECT_EQ(mapped->threads(), shared_snapshot().threads);
  EXPECT_EQ(mapped->subject(),
            static_cast<std::uint8_t>(shared_snapshot().subject));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mapped->blob()) % 8, 0u);
  EXPECT_TRUE(snapv3::validate_flat_fabric(mapped->blob(),
                                           mapped->blob_size(), &error))
      << error;
  std::remove(path.c_str());
}

TEST(SnapshotV3, MappedOpenRejectsV1AndV2Files) {
  for (const char* name : {"snapshot/v1.snap", "snapshot/v2.snap"}) {
    std::string error;
    EXPECT_FALSE(
        MappedSnapshot::open(testfx::corpus_path(name), &error).has_value())
        << name;
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    // The copying loader still accepts the same file.
    std::istringstream in(testfx::corpus_bytes(name));
    EXPECT_TRUE(load_snapshot(in, &error).has_value()) << error;
  }
}

// Both loaders parse the container with one function, so on any v3 file
// the copying loader accepts exactly when the mapper does, and a refusal
// carries the same diagnostic from both. Inputs: every truncation of
// v3-hazard.snap, and every single-byte flip of every section payload with
// that section's CRC re-stamped, so the flip reaches the payload checks
// (meta padding, the flat blob's validator, the hazard section).
TEST(SnapshotV3, LoadersAgreeOnEveryContainer) {
  std::size_t accepted = 0;
  std::size_t refused = 0;
  const auto agree = [&](const std::string& bytes, const std::string& what) {
    const std::string path = write_temp(bytes, "v3_agree.snap");
    std::string load_error;
    std::string map_error;
    std::istringstream in(bytes);
    const bool loaded = load_snapshot(in, &load_error).has_value();
    const bool mapped = MappedSnapshot::open(path, &map_error).has_value();
    std::remove(path.c_str());
    EXPECT_EQ(loaded, mapped) << what << ": loader \"" << load_error
                              << "\", mapper \"" << map_error << "\"";
    EXPECT_EQ(load_error, map_error) << what;
    ++(loaded ? accepted : refused);
  };

  // The committed reproducer: section 8's metric count zeroed, CRC valid.
  const std::string reproducer =
      testfx::corpus_bytes("snapshot/regress-mapper-skips-hazard-section.snap");
  agree(reproducer, "reproducer");
  std::istringstream reproducer_in(reproducer);
  std::string error;
  EXPECT_FALSE(load_snapshot(reproducer_in, &error).has_value());
  EXPECT_NE(error.find("section 8"), std::string::npos) << error;

  const std::string good = testfx::corpus_bytes("snapshot/v3-hazard.snap");
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    agree(good.substr(0, cut), "truncated to " + std::to_string(cut));
  const auto le_at = [&](std::size_t at, std::size_t width) {
    std::uint64_t value = 0;
    std::memcpy(&value, good.data() + at, width);
    return static_cast<std::size_t>(value);
  };
  const std::size_t section_count = le_at(8, 4);
  ASSERT_EQ(section_count, 3u);  // meta, flat fabric, hazard
  for (std::size_t s = 0; s < section_count; ++s) {
    const std::size_t entry = 12 + s * 24;
    const std::size_t offset = le_at(entry + 4, 8);
    const std::size_t size = le_at(entry + 12, 8);
    for (std::size_t at = offset; at < offset + size; ++at) {
      std::string bytes = good;
      bytes[at] = static_cast<char>(bytes[at] ^ 0x20);
      const std::uint32_t crc = snapshot_crc32(
          reinterpret_cast<const unsigned char*>(bytes.data()) + offset, size);
      std::memcpy(bytes.data() + entry + 20, &crc, sizeof(crc));
      agree(bytes, "section " + std::to_string(le_at(entry, 4)) +
                       " flip at byte " + std::to_string(at));
    }
  }
  // Both outcomes occur, so the sweep compares acceptance as well as
  // diagnostics.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(SnapshotV3, MappedOpenRejectsEveryTruncation) {
  const std::string good = v3_bytes();
  // Every prefix at a stride, plus all the header/table boundaries.
  std::vector<std::size_t> cuts = {0, 1, 6, 11, 12, 35, 59, 60, 79, 80,
                                   good.size() - 1};
  for (std::size_t cut = 81; cut < good.size(); cut += 97)
    cuts.push_back(cut);
  for (const std::size_t cut : cuts) {
    const std::string path =
        write_temp(good.substr(0, cut), "v3_trunc.snap");
    std::string error;
    EXPECT_FALSE(MappedSnapshot::open(path, &error).has_value())
        << "truncated at " << cut << " parsed";
    std::remove(path.c_str());
  }
}

TEST(SnapshotV3, MappedOpenRejectsByteFlipsEverywhere) {
  const std::string good = v3_bytes();
  // Flip every byte of the header and section table, then sweep the
  // payloads at a prime stride (CRC-32 catches any single-byte change, so
  // the stride only bounds runtime, not coverage class).
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 60 && i < good.size(); ++i) offsets.push_back(i);
  for (std::size_t i = 60; i < good.size(); i += 131) offsets.push_back(i);
  offsets.push_back(good.size() - 1);
  for (const std::size_t at : offsets) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0x20);
    const std::string path = write_temp(bad, "v3_flip.snap");
    EXPECT_FALSE(MappedSnapshot::open(path).has_value())
        << "flip at byte " << at << " parsed";
    std::remove(path.c_str());
  }
}

TEST(SnapshotV3, ValidateRejectsBadDirectoryWithValidCrc) {
  // Corrupt the flat blob *before* the container CRC is computed, so the
  // file-level checks pass and only validate_flat_fabric stands between a
  // hostile directory and an out-of-bounds read.
  const std::string good = v3_bytes();
  const auto blob_size = static_cast<std::uint32_t>(good.size() - 80);
  auto rewrite_u32 = [&](std::size_t blob_off, std::uint32_t value) {
    std::vector<unsigned char> blob(good.begin() + 80, good.end());
    std::memcpy(blob.data() + blob_off, &value, sizeof(value));
    return blob;
  };
  // Directory fields (io/snapshot_v3.h): blob_size at 4, segments_off at 8,
  // segment_count at 12 — each rewritten to lie about the blob's bounds.
  const std::vector<std::vector<unsigned char>> bad_blobs = {
      rewrite_u32(4, blob_size + 8),   // directory blob_size too large
      rewrite_u32(8, blob_size),       // segments offset out of range
      rewrite_u32(12, 1u << 30),       // segment count overflows blob
  };
  for (std::size_t i = 0; i < bad_blobs.size(); ++i) {
    // Re-align: validate takes the blob directly, 8-aligned.
    std::vector<std::uint64_t> aligned((bad_blobs[i].size() + 7) / 8);
    std::memcpy(aligned.data(), bad_blobs[i].data(), bad_blobs[i].size());
    std::string error;
    EXPECT_FALSE(snapv3::validate_flat_fabric(
        reinterpret_cast<const unsigned char*>(aligned.data()),
        bad_blobs[i].size(), &error))
        << "bad directory " << i << " validated";
    EXPECT_FALSE(error.empty());
  }
}

// A snapshot built by hand, deliberately out of canonical order, with
// every index the blob derives populated: shared peers, a /32 that is the
// ABI of one segment and the CBI of another, a /24 cone two segments
// share, pins in two metros, regional entries, and alias sets.
RunSnapshot unsorted_snapshot() {
  RunSnapshot s;
  s.seed = 7;
  s.threads = 2;
  const auto segment = [](Ipv4 abi, Ipv4 cbi, std::uint32_t asn,
                          double confidence) {
    SnapshotSegment seg;
    seg.abi = abi;
    seg.cbi = cbi;
    seg.peer_asn = Asn{asn};
    seg.peer_org = OrgId{asn == 0 ? 0 : asn + 1};
    seg.group = asn == 0 ? kSnapshotNoGroup : 1;
    seg.confirmation = Confirmation::kIxpClient;
    seg.confidence = confidence;
    seg.hop_density = 0.5;
    return seg;
  };
  s.segments.push_back(segment(Ipv4(10, 0, 0, 9), Ipv4(10, 0, 0, 5), 64500,
                               0.4));
  s.segments.push_back(segment(Ipv4(10, 0, 0, 5), Ipv4(10, 0, 0, 1), 64501,
                               0.9));
  s.segments.push_back(segment(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 0, 1.0));
  s.segments.push_back(segment(Ipv4(10, 0, 0, 3), Ipv4(10, 0, 0, 4), 64500,
                               0.0));
  s.segments[0].vpi = true;
  s.segments[2].ixp = true;
  s.segments[0].dest_slash24s = {0xC6336500u, 0xC0000200u};
  s.segments[1].dest_slash24s = {0xC0000200u};
  s.segments[3].regions = {4, 1};
  s.pins = {{0x0A000009u, 3, 1, 2, 1}, {0x0A000001u, 3, 0, 1, 0},
            {0x0A000005u, 1, 2, 0, 2}};
  s.regional = {{0x0A000004u, 9}, {0x0A000003u, 2}};
  s.alias_sets = {{0x0A000009u, 0x0A000005u}, {0x0A000002u, 0x0A000001u}};
  return s;
}

TEST(SnapshotV3, InMemoryBlobMatchesTheSavedBlob) {
  const std::vector<RunSnapshot> snapshots = {shared_snapshot(),
                                              unsorted_snapshot()};
  for (std::size_t k = 0; k < snapshots.size(); ++k) {
    std::ostringstream out;
    save_snapshot(out, snapshots[k]);
    const std::string path = write_temp(out.str(), "v3_blob.snap");
    std::string error;
    const auto mapped = MappedSnapshot::open(path, &error);
    ASSERT_TRUE(mapped.has_value()) << error;
    const FabricIndex index(snapshots[k]);
    ASSERT_EQ(index.blob_size(), mapped->blob_size()) << "snapshot " << k;
    EXPECT_EQ(std::memcmp(index.blob(), mapped->blob(), index.blob_size()),
              0)
        << "snapshot " << k;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(index.blob()) % 8, 0u);
    std::remove(path.c_str());
  }
  // The hand-built snapshot reached the encoder only after canonicalize():
  // its segments come back sorted by (ABI, CBI).
  const FabricIndex index(unsorted_snapshot());
  ASSERT_EQ(index.segment_count(), 4u);
  for (std::uint32_t i = 1; i < index.segment_count(); ++i)
    EXPECT_LT(index.segment(i - 1).abi, index.segment(i).abi) << i;
}

TEST(SnapshotV3, FabricIndexRejectsOutOfRangeFields) {
  RunSnapshot bad = unsorted_snapshot();
  bad.segments[1].confidence = 1.5;
  EXPECT_THROW(FabricIndex{bad}, std::runtime_error);
  bad = unsorted_snapshot();
  bad.segments[0].group = 6;
  EXPECT_THROW(FabricIndex{bad}, std::runtime_error);
}

TEST(SnapshotV3, FabricViewMatchesFabricIndexOnEveryQuery) {
  // Both backends against the brute-force oracle: the mmapped view of a
  // saved file, and the in-memory index of the same snapshot — for the
  // pipeline's fabric and for the hand-built one.
  for (const RunSnapshot& snapshot : {shared_snapshot(), unsorted_snapshot()}) {
    std::ostringstream out;
    save_snapshot(out, snapshot);
    const std::string path = write_temp(out.str(), "v3_view.snap");
    std::string error;
    const auto mapped = MappedSnapshot::open(path, &error);
    ASSERT_TRUE(mapped.has_value()) << error;
    const FabricView view(mapped->blob());
    const FabricIndex index(snapshot);
    const testfx::QueryOracle oracle(snapshot);

    ASSERT_EQ(view.segment_count(), oracle.snapshot().segments.size());
    for (std::uint32_t i = 0; i < view.segment_count(); ++i) {
      const SegmentFacts a = view.segment(i);
      const SnapshotSegment& b = oracle.snapshot().segments[i];
      EXPECT_EQ(a.abi, b.abi.value()) << i;
      EXPECT_EQ(a.cbi, b.cbi.value()) << i;
      EXPECT_EQ(a.peer_asn, b.peer_asn.value) << i;
      EXPECT_EQ(a.peer_org, b.peer_org.value) << i;
      EXPECT_EQ(a.confirmation, static_cast<std::uint8_t>(b.confirmation))
          << i;
      EXPECT_EQ(a.group, b.group) << i;
      EXPECT_EQ(a.ixp, b.ixp) << i;
      EXPECT_EQ(a.vpi, b.vpi) << i;
      EXPECT_EQ(a.confidence, b.confidence) << i;
    }

    const QueryEngine from_view(view);
    const QueryEngine from_index(index);
    for (const QueryRequest& request :
         testfx::every_request(oracle.snapshot())) {
      const QueryResponse want = oracle.execute(request);
      EXPECT_TRUE(testfx::same_response(from_view.execute(request), want))
          << testfx::describe(request);
      EXPECT_TRUE(testfx::same_response(from_index.execute(request), want))
          << testfx::describe(request);
    }
    std::remove(path.c_str());
  }
}

TEST(SnapshotV3, FabricViewIsZeroCopyIntoTheMapping) {
  const std::string path = write_temp(v3_bytes(), "v3_zero.snap");
  std::string error;
  const auto mapped = MappedSnapshot::open(path, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  const FabricView view(mapped->blob());
  const auto* lo = mapped->blob();
  const auto* hi = mapped->blob() + mapped->blob_size();

  // Every span the view hands out must point INTO the mapped file, not at
  // freshly allocated copies.
  auto in_mapping = [&](Span32 span) {
    if (span.empty()) return true;
    const auto* data = reinterpret_cast<const unsigned char*>(span.values);
    return data >= lo && data + span.count * sizeof(std::uint32_t) <= hi;
  };
  EXPECT_TRUE(in_mapping(view.asn_list()));
  EXPECT_TRUE(in_mapping(view.vpi_list()));
  EXPECT_TRUE(in_mapping(view.metro_list()));
  ASSERT_FALSE(view.asn_list().empty());
  EXPECT_TRUE(in_mapping(view.peer_segments(view.asn_list()[0])));
  const SegmentFacts facts = view.segment(0);
  const auto hit = view.find(Ipv4(facts.abi));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(in_mapping(hit->segments));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cloudmap
